let solve ?stats ~problem ~epsilon ~exact_finish ~improved g =
  if Digraph.m g = 0 then invalid_arg "Lawler: graph has no arcs";
  let den = Critical.den problem g in
  let lo, hi = Critical.lambda_bounds problem g in
  let lo = ref (float_of_int lo) and hi = ref (float_of_int hi) in
  let candidate = ref None in
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  while !hi -. !lo > epsilon do
    (match stats with
    | Some s ->
      s.Stats.iterations <- s.Stats.iterations + 1;
      s.Stats.oracle_calls <- s.Stats.oracle_calls + 1
    | None -> ());
    let mid = 0.5 *. (!lo +. !hi) in
    let costs = Critical.real_costs problem g mid in
    match Bellman_ford.run ?on_relax (Bellman_ford.Float costs) g with
    | Bellman_ford.Negative_cycle cycle ->
      (* a cycle with ratio < mid exists: λ* < mid.  The improved
         variant uses the witness itself as the new upper bound — the
         cycle's exact ratio is at most mid but usually far below it,
         so the interval shrinks by much more than half. *)
      candidate := Some cycle;
      hi :=
        if improved then
          Float.min mid (Ratio.to_float (Critical.ratio_of_cycle g ~den cycle))
        else mid
    | Bellman_ford.Feasible _ ->
      (* no negative cycle: λ* >= mid *)
      lo := mid
  done;
  let cycle =
    match !candidate with
    | Some c -> c
    | None -> Critical.any_cycle ~who:"Lawler" g
  in
  if exact_finish then Critical.improve_to_optimal ?stats ~den g cycle
  else (Critical.ratio_of_cycle g ~den cycle, cycle)

let minimum_cycle_mean ?stats ?epsilon ?(exact_finish = true)
    ?(improved = false) g =
  let epsilon =
    match epsilon with
    | Some e -> e
    | None ->
      (* distinct cycle means differ by at least 1/n², so this width
         already pins the optimum to a unique value *)
      let n = float_of_int (max 2 (Digraph.n g)) in
      1.0 /. (2.0 *. n *. n)
  in
  solve ?stats ~problem:Critical.Cycle_mean ~epsilon ~exact_finish ~improved g

let minimum_cycle_ratio ?stats ?epsilon ?(exact_finish = true)
    ?(improved = false) g =
  Critical.assert_ratio_well_posed g;
  let epsilon =
    match epsilon with
    | Some e -> e
    | None ->
      let t = float_of_int (max 2 (Digraph.total_transit g)) in
      1.0 /. (2.0 *. t *. t)
  in
  solve ?stats ~problem:Critical.Cycle_ratio ~epsilon ~exact_finish ~improved g
