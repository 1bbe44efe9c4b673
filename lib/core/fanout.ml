let sp_component = Obs.intern "solver.component"
let sp_comp_arcs = Obs.intern "solver.component_arcs"

let serial ?pool k =
  match pool with Some p -> k <= 1 || Executor.jobs p <= 1 | None -> true

(* Nesting both levels blindly oversubscribes: 8 component tasks each
   splitting 8 ways on an 8-worker pool only queue futures.  Help-first
   waiting keeps the nesting deadlock-free either way. *)
let placement ~jobs arcs =
  let total = Array.fold_left ( + ) 0 arcs in
  let saturated = Array.length arcs >= jobs in
  Array.map (fun m -> (not saturated) || 2 * m >= total) arcs

let run ?pool ~arcs solve items =
  let attempt ?pool x =
    let go () =
      match solve ?pool x with
      | v -> Ok v
      | exception Budget.Exceeded c -> Error c
    in
    if !Obs.enabled_flag then begin
      Trace.begin_span sp_component;
      Trace.counter_int sp_comp_arcs (arcs x);
      Fun.protect ~finally:(fun () -> Trace.end_span sp_component) go
    end
    else go ()
  in
  let outcomes =
    match pool with
    | Some p when not (serial ~pool:p (Array.length items)) ->
      let inner = placement ~jobs:(Executor.jobs p) (Array.map arcs items) in
      items
      |> Array.mapi (fun i x ->
             let pool = if inner.(i) then Some p else None in
             Executor.async p (fun () -> attempt ?pool x))
      |> Array.map (Executor.await p)
    | _ -> Array.map (attempt ?pool) items
  in
  let cause =
    Array.fold_left
      (fun acc o ->
        match (acc, o) with
        | Some Budget.Deadline, _ | _, Ok _ -> acc
        | _, Error c -> Some c)
      None outcomes
  in
  (Array.map Result.to_option outcomes, cause)

let best ~key results =
  Array.fold_left
    (fun acc r ->
      match (acc, r) with
      | Some b, Some x when Ratio.leq (key b) (key x) -> acc
      | _, None -> acc
      | _, Some _ -> r)
    None results

let with_pool ?pool ~jobs f =
  match pool with
  | Some _ -> f pool
  | None when jobs = 1 -> f None
  | None ->
    let p = Executor.create ~jobs in
    Fun.protect ~finally:(fun () -> Executor.shutdown p) (fun () -> f (Some p))
