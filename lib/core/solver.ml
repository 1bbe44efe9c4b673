type objective = Minimize | Maximize

type problem = Critical.problem = Cycle_mean | Cycle_ratio

type report = {
  lambda : Ratio.t;
  cycle : int list;
  components : int;
  stats : Stats.t;
}

(* Exact arithmetic safety: every cross-multiplication in the library
   is bounded by (2·D·W)·D where W = max |weight| and D = the largest
   possible denominator (n for means, total transit for ratios); keep
   that product far from max_int.  A zero-transit cycle makes the ratio
   problem ill-posed; such a cycle exists iff the subgraph of
   zero-transit arcs is cyclic. *)
let preflight_values ~problem ~n ~m ~max_abs_weight ~total_transit
    ~zero_transit_cycle =
  if m > 0 then begin
    let w = max 1 max_abs_weight in
    let d =
      match problem with
      | Cycle_mean -> max 1 n
      | Cycle_ratio -> max n total_transit
    in
    if d > 0 && w > max_int / 8 / d / d then
      invalid_arg
        (Printf.sprintf
           "Solver: weights up to %d on an instance with denominator range \
            %d would overflow exact native-int arithmetic" w d)
  end;
  if problem = Cycle_ratio && zero_transit_cycle () then
    invalid_arg "Solver: cycle with zero total transit time \
                 (cost-to-time ratio undefined)"

let preflight ~problem g =
  let m = Digraph.m g in
  preflight_values ~problem ~n:(Digraph.n g) ~m
    ~max_abs_weight:
      (if m = 0 then 0
       else max (abs (Digraph.min_weight g)) (abs (Digraph.max_weight g)))
    ~total_transit:
      (match problem with
      | Cycle_ratio -> Digraph.total_transit g
      | Cycle_mean -> 0)
    ~zero_transit_cycle:(fun () ->
      Critical.cycle_in g (fun a -> Digraph.transit g a = 0) <> None)

exception Deadline_exceeded of { partial : report option }

let sp_partition = Obs.intern "solver.partition"
let sp_reduce = Obs.intern "solver.reduce"

let solve_partition ?pool ~budget (run : Registry.exact_solver) subs =
  let solve_sub ?pool (sp : Scc.subproblem) =
    let budget = budget () in
    Option.iter Budget.check budget;
    let stats = Stats.create () in
    let lambda, cycle = run ~stats ?budget ?pool sp.Scc.sub in
    (lambda, List.map (fun a -> sp.Scc.arc_of_sub.(a)) cycle, stats)
  in
  let results, cause =
    Fanout.run ?pool ~arcs:(fun sp -> Digraph.m sp.Scc.sub) solve_sub subs
  in
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_reduce;
  let completed = List.filter_map Fun.id (Array.to_list results) in
  let stats = Stats.create () in
  List.iter (fun (_, _, s) -> Stats.add stats s) completed;
  let report =
    Option.map
      (fun (lambda, cycle, _) ->
        { lambda; cycle; components = List.length completed; stats })
      (Fanout.best ~key:(fun (lambda, _, _) -> lambda) results)
  in
  if tr then Trace.end_span sp_reduce;
  (report, cause)

let solve ?(objective = Minimize) ?(problem = Cycle_mean) ?budget ?(jobs = 1)
    ?pool ~algorithm g =
  if jobs < 1 then invalid_arg "Solver.solve: jobs must be >= 1";
  preflight ~problem g;
  let g_min =
    match objective with Minimize -> g | Maximize -> Digraph.negate_weights g
  in
  let run =
    match problem with
    | Cycle_mean -> Registry.minimum_cycle_mean algorithm
    | Cycle_ratio -> Registry.minimum_cycle_ratio algorithm
  in
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_partition;
  let subs = Scc.partition g_min (Scc.compute g_min) in
  if tr then Trace.end_span sp_partition;
  let report, cause =
    Fanout.with_pool ?pool ~jobs (fun pool ->
        solve_partition ?pool ~budget:(fun () -> budget) run subs)
  in
  let report =
    match objective with
    | Minimize -> report
    | Maximize ->
      Option.map (fun r -> { r with lambda = Ratio.neg r.lambda }) report
  in
  if cause <> None then raise (Deadline_exceeded { partial = report })
  else report

let minimum_cycle_mean ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Minimize ~problem:Cycle_mean ?jobs ~algorithm g

let maximum_cycle_mean ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Maximize ~problem:Cycle_mean ?jobs ~algorithm g

let minimum_cycle_ratio ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Minimize ~problem:Cycle_ratio ?jobs ~algorithm g

let maximum_cycle_ratio ?(algorithm = Registry.Howard) ?jobs g =
  solve ~objective:Maximize ~problem:Cycle_ratio ?jobs ~algorithm g
