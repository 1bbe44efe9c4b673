type certificate = {
  lo : Ratio.t;
  hi : Ratio.t;
  witness : int list;
  eps : float;
  scale : float;
  components : int;
  tests : int;
  rounds : int;
  converged : bool;
}

let default_eps = 0.01

let scale g =
  if Digraph.m g = 0 then 1.0
  else
    Float.max 1.0
      (float_of_int
         (max (abs (Digraph.min_weight g)) (abs (Digraph.max_weight g))))

let validate_eps eps =
  if Float.is_finite eps && eps > 0.0 then Ok ()
  else Error "eps must be a positive finite float"

let sp_solve = Obs.intern "approx.solve"

(* the Altschuler–Parrilo-style truncation: ~1/ε rounds of value
   iteration per test, never more than n (after n rounds the exact
   FIFO engine is the better spend) *)
let truncation ~eps n = min (max 1 n) (max 16 (int_of_float (Float.ceil (2.0 /. eps))))

let solve ?stats ?budget ?(jobs = 1) ?pool ?(problem = Solver.Cycle_mean)
    ?(objective = Solver.Minimize) ~eps g =
  (match validate_eps eps with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Approx.solve: " ^ msg));
  if jobs < 1 then invalid_arg "Approx.solve: jobs must be >= 1";
  Solver.preflight ~problem g;
  let sc = scale g in
  let width = eps *. sc in
  let g_min =
    match objective with
    | Solver.Minimize -> g
    | Solver.Maximize -> Digraph.negate_weights g
  in
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_solve;
  let scc = Scc.compute g_min in
  let subs = Scc.partition g_min scc in
  let result =
    if Array.length subs = 0 then None
    else begin
      let solve_sub ?pool (sp : Scc.subproblem) =
        Option.iter Budget.check budget;
        let sub = sp.Scc.sub in
        let den = Critical.den problem sub
        and bounds = Critical.lambda_bounds problem sub in
        let sub_stats = Stats.create () in
        let r =
          Approx_lane.solve ~stats:sub_stats ?budget ?pool ~den ~bounds ~width
            ~max_rounds:(truncation ~eps (Digraph.n sub)) sub
        in
        let witness = List.map (fun a -> sp.Scc.arc_of_sub.(a)) r.Approx_lane.witness in
        ({ r with Approx_lane.witness }, sub_stats)
      in
      let results, cause =
        Fanout.with_pool ?pool ~jobs (fun pool ->
            Fanout.run ?pool ~arcs:(fun sp -> Digraph.m sp.Scc.sub) solve_sub
              subs)
      in
      let completed = List.filter_map Fun.id (Array.to_list results) in
      let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 completed in
      Option.iter
        (fun s -> List.iter (fun (_, sub) -> Stats.add s sub) completed)
        stats;
      let lane_best key =
        Option.map fst (Fanout.best ~key:(fun (r, _) -> key r) results)
      in
      let den_g = Critical.den problem g_min
      and blo_g = fst (Critical.lambda_bounds problem g_min) in
      (* components the budget never reached only widen the interval:
         their λ* is still above the graph-wide a-priori lower bound,
         and any completed component's hi keeps bounding the global
         minimum from above *)
      let lo =
        match lane_best (fun r -> r.Approx_lane.lo) with
        | Some r when cause = None -> r.Approx_lane.lo
        | _ -> Ratio.of_int blo_g
      in
      let hi, witness =
        match lane_best (fun r -> r.Approx_lane.hi) with
        | Some r -> (r.Approx_lane.hi, r.Approx_lane.witness)
        | None ->
          (* every component was budget-skipped: fall back to an exact
             O(n+m) witness so even a fully starved solve certifies *)
          let c =
            match Critical.cycle_in g_min (fun _ -> true) with
            | Some c -> c
            | None -> assert false (* subs is non-empty *)
          in
          (Critical.ratio_of_cycle g_min ~den:den_g c, c)
      in
      let converged =
        cause = None
        && List.for_all (fun (r, _) -> r.Approx_lane.converged) completed
        && Ratio.to_float hi -. Ratio.to_float lo <= width
      in
      let lo, hi =
        match objective with
        | Solver.Minimize -> (lo, hi)
        | Solver.Maximize -> (Ratio.neg hi, Ratio.neg lo)
      in
      Some
        {
          lo;
          hi;
          witness;
          eps;
          scale = sc;
          components = List.length completed;
          tests = sum (fun r -> r.Approx_lane.tests);
          rounds = sum (fun r -> r.Approx_lane.rounds);
          converged;
        }
    end
  in
  if tr then Trace.end_span sp_solve;
  result

let recheck ?(problem = Solver.Cycle_mean) ?(objective = Solver.Minimize) g
    cert =
  let den = Critical.den problem g in
  try
    if cert.witness = [] then Error "approx certificate: empty witness"
    else if not (Digraph.is_cycle g cert.witness) then
      Error "approx certificate: witness is not a cycle of this graph"
    else if not (Ratio.leq cert.lo cert.hi) then
      Error "approx certificate: empty interval"
    else
      let r = Critical.ratio_of_cycle g ~den cert.witness in
      let attained =
        match objective with
        | Solver.Minimize -> cert.hi
        | Solver.Maximize -> cert.lo
      in
      if Ratio.equal r attained then Ok ()
      else Error "approx certificate: witness does not attain its bound"
  with _ -> Error "approx certificate: witness refers outside this graph"

(* ------------------------------------------------------------------ *)
(* Registry lane                                                       *)
(* ------------------------------------------------------------------ *)

(* the strongly-connected entry points the Registry hook expects,
   mirroring Registry.minimum_cycle_mean/_ratio *)
let lane_run problem ?stats ?budget ?pool ~eps g =
  (match validate_eps eps with
  | Ok () -> ()
  | Error msg -> invalid_arg ("approx lane: " ^ msg));
  (match problem with
  | Solver.Cycle_ratio -> Critical.assert_ratio_well_posed g
  | Solver.Cycle_mean -> ());
  let den = Critical.den problem g
  and bounds = Critical.lambda_bounds problem g in
  let width = eps *. scale g in
  let r =
    Approx_lane.solve ?stats ?budget ?pool ~den ~bounds ~width
      ~max_rounds:(truncation ~eps (Digraph.n g)) g
  in
  {
    Registry.lane_lo = r.Approx_lane.lo;
    lane_hi = r.Approx_lane.hi;
    lane_witness = r.Approx_lane.witness;
    lane_tests = r.Approx_lane.tests;
    lane_rounds = r.Approx_lane.rounds;
    lane_converged = r.Approx_lane.converged;
  }

let () =
  Registry.register_lane
    {
      Registry.lane_name = "approx";
      lane_mean = lane_run Solver.Cycle_mean;
      lane_ratio = lane_run Solver.Cycle_ratio;
    }
