type latch = int

type path = { src : latch; dst : latch; delay : int }

type t = { names : string Vec.t; paths : path Vec.t }

let create () = { names = Vec.create (); paths = Vec.create () }

let add_latch t ~name =
  let id = Vec.length t.names in
  Vec.push t.names name;
  id

let check_latch t v name =
  if v < 0 || v >= Vec.length t.names then
    invalid_arg ("Clock_schedule." ^ name ^ ": unknown latch")

let add_path t ~delay u v =
  check_latch t u "add_path";
  check_latch t v "add_path";
  if delay < 0 then invalid_arg "Clock_schedule.add_path: negative delay";
  Vec.push t.paths { src = u; dst = v; delay }

let latch_count t = Vec.length t.names

let latch_name t v =
  check_latch t v "latch_name";
  Vec.get t.names v

let to_graph t =
  let b = Digraph.create_builder (latch_count t) in
  Vec.iter
    (fun p -> ignore (Digraph.add_arc b ~src:p.src ~dst:p.dst ~weight:p.delay ()))
    t.paths;
  Digraph.build b

let min_period ?(algorithm = Registry.Howard) t =
  match Solver.maximum_cycle_mean ~algorithm (to_graph t) with
  | None -> None
  | Some r -> Some r.Solver.lambda

(* x(v) >= x(u) + d − P  ⟺  x(u) − x(v) <= P − d: Bellman-Ford over the
   latch graph with integer costs q·(P − d) where P = p/q; feasible
   potentials (negated) are a valid schedule.  A negative cycle under
   these costs is exactly a cycle of mean > P. *)
let schedule t ~period =
  let g = to_graph t in
  let p = Ratio.num period and q = Ratio.den period in
  let costs = Array.init (Digraph.m g) (fun a -> p - (q * Digraph.weight g a)) in
  match Bellman_ford.run (Bellman_ford.Int costs) g with
  | Bellman_ford.Negative_cycle _ -> None
  | Bellman_ford.Feasible pot -> Some (Array.map (fun x -> Ratio.make (-x) q) pot)

let verify_schedule t ~period x =
  if Array.length x <> latch_count t then false
  else
    Vec.fold_left
      (fun ok p ->
        ok
        && Ratio.leq
             (Ratio.sub (Ratio.of_int p.delay) period)
             (Ratio.sub x.(p.dst) x.(p.src)))
      true t.paths
