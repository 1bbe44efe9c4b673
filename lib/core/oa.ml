(* Scaling search: bisection over λ in which node prices survive from
   phase to phase.  At each probe λ=mid we first look for a cycle in
   the admissible graph (arcs whose reduced cost under the prices is
   non-positive) — a sound "λ* <= mid" certificate obtained in O(m) —
   and only run the full Bellman-Ford oracle when the quick test is
   inconclusive. *)
let solve ?stats ~problem ~epsilon g =
  if Digraph.m g = 0 then invalid_arg "Oa: graph has no arcs";
  let n = Digraph.n g in
  let prices = Array.make n 0.0 in
  let lo, hi = Critical.lambda_bounds problem g in
  let lo = ref (float_of_int lo) and hi = ref (float_of_int hi) in
  let candidate = ref None in
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  while !hi -. !lo > epsilon do
    (match stats with
    | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
    | None -> ());
    let mid = 0.5 *. (!lo +. !hi) in
    let costs = Critical.real_costs problem g mid in
    let admissible a =
      costs.(a) +. prices.(Digraph.src g a) -. prices.(Digraph.dst g a) <= 0.0
    in
    (match Critical.cycle_in g admissible with
    | Some cycle ->
      (* all reduced costs on the cycle are <= 0 and prices telescope,
         so the cycle's ratio is <= mid *)
      candidate := Some cycle;
      hi := mid
    | None ->
      (match stats with
      | Some s -> s.Stats.oracle_calls <- s.Stats.oracle_calls + 1
      | None -> ());
      (match Bellman_ford.run ?on_relax (Bellman_ford.Float costs) g with
      | Bellman_ford.Negative_cycle cycle ->
        candidate := Some cycle;
        hi := mid
      | Bellman_ford.Feasible pot ->
        (* refresh the prices with the feasible potentials *)
        Array.blit pot 0 prices 0 n;
        lo := mid))
  done;
  match !candidate with
  | Some c -> c
  | None -> Critical.any_cycle ~who:"Oa" g

let default_epsilon g =
  let n = float_of_int (max 2 (Digraph.n g)) in
  1.0 /. (2.0 *. n *. n)

let run ?stats ~problem ~exact ?epsilon g =
  let epsilon = match epsilon with Some e -> e | None -> default_epsilon g in
  let den = Critical.den problem g in
  let cycle = solve ?stats ~problem ~epsilon g in
  if exact then Critical.improve_to_optimal ?stats ~den g cycle
  else (Critical.ratio_of_cycle g ~den cycle, cycle)

let oa1_minimum_cycle_mean ?stats ?epsilon g =
  run ?stats ~problem:Critical.Cycle_mean ~exact:false ?epsilon g

let oa2_minimum_cycle_mean ?stats ?epsilon g =
  run ?stats ~problem:Critical.Cycle_mean ~exact:true ?epsilon g

let oa1_minimum_cycle_ratio ?stats ?epsilon g =
  Critical.assert_ratio_well_posed g;
  run ?stats ~problem:Critical.Cycle_ratio ~exact:false ?epsilon g

let oa2_minimum_cycle_ratio ?stats ?epsilon g =
  Critical.assert_ratio_well_posed g;
  run ?stats ~problem:Critical.Cycle_ratio ~exact:true ?epsilon g
