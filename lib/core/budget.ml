type cause = Iterations | Deadline

exception Exceeded of cause

type t = {
  remaining : int Atomic.t option; (* None when unbounded *)
  now : (unit -> float) option;
  deadline_at : float;
}

let create ?max_iterations ?now ?deadline_at () =
  (match (now, deadline_at) with
  | None, Some _ ->
    invalid_arg "Budget.create: a deadline requires a clock (~now)"
  | _ -> ());
  {
    remaining = Option.map Atomic.make max_iterations;
    now;
    deadline_at = (match deadline_at with Some d -> d | None -> infinity);
  }

let check t =
  match t.now with
  | Some f when f () >= t.deadline_at -> raise (Exceeded Deadline)
  | _ -> ()

let tick t =
  (match t.remaining with
  | Some r ->
    (* fetch-and-add keeps concurrent ticks from distinct domains exact:
       exactly [max_iterations] ticks succeed, pool-wide *)
    if Atomic.fetch_and_add r (-1) <= 0 then raise (Exceeded Iterations)
  | None -> ());
  check t
