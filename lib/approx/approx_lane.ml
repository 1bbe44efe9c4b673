type t = {
  lo : Ratio.t;
  hi : Ratio.t;
  witness : int list;
  tests : int;
  rounds : int;
  converged : bool;
}

let sp_lane = Obs.intern "approx.lane"
let sp_tests = Obs.intern "approx.tests"

let solve ?stats ?budget ?pool ~den ~bounds ~width ~max_rounds g =
  if Digraph.m g = 0 then invalid_arg "Approx_lane.solve: graph has no arcs";
  if not (Float.is_finite width) || width <= 0.0 then
    invalid_arg "Approx_lane.solve: width must be positive and finite";
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_lane;
  let n = Digraph.n g in
  let m = Digraph.m g in
  let witness =
    ref
      (match Critical.cycle_in g (fun _ -> true) with
      | Some c -> c
      | None -> invalid_arg "Approx_lane.solve: graph is acyclic")
  in
  let hi = ref (Critical.ratio_of_cycle g ~den !witness) in
  let blo, bhi = bounds in
  let lo = ref (Ratio.of_int blo) in
  (* Grid denominator: fine enough to quarter the width target, coarse
     enough that |q·w - p·den| stays ≤ q·(wmax + bmag·dmax) per arc and
     every ≤ n-arc walk sum stays within max_int/8 — the overflow
     headroom contract the whole exact layer relies on. *)
  let wmax =
    max 1 (max (abs (Digraph.min_weight g)) (abs (Digraph.max_weight g)))
  in
  let dmax = Digraph.fold_arcs g (fun acc a -> max acc (den a)) 1 in
  let bmag = max (abs blo) (abs bhi) + 1 in
  let q_safe = max 1 (max_int / 8 / (n + 1) / (wmax + (bmag * dmax))) in
  let q_target = Dyadic.denom_for (width /. 4.0) in
  let q = if q_target <= q_safe then q_target else Dyadic.floor_pow2 q_safe in
  let tests = ref 0 in
  let rounds = ref 0 in
  let costs = Array.make m 0 in
  let interval_width () = Ratio.to_float !hi -. Ratio.to_float !lo in
  (try
     let running = ref true in
     while !running && interval_width () > width do
       (match budget with Some b -> Budget.tick b | None -> ());
       let mid =
         Dyadic.quantize ~denom:q
           (0.5 *. (Ratio.to_float !lo +. Ratio.to_float !hi))
       in
       if not (Ratio.lt !lo mid && Ratio.lt mid !hi) then
         (* no grid point strictly inside: the interval is already at
            this grid's resolution — as tight as exact arithmetic
            allows here *)
         running := false
       else begin
         incr tests;
         (match stats with
         | Some s ->
           s.Stats.iterations <- s.Stats.iterations + 1;
           s.Stats.oracle_calls <- s.Stats.oracle_calls + 1
         | None -> ());
         for a = 0 to m - 1 do
           costs.(a) <- Critical.scaled_cost g ~den mid a
         done;
         let lower_witness c =
           (* improved-Lawler step: the witness's exact ratio (< mid by
              the sign of the test) becomes the new upper bound *)
           let rc = Critical.ratio_of_cycle g ~den c in
           if Ratio.lt rc !hi then begin
             hi := rc;
             witness := c
           end
         in
         let verdict, r =
           Value_iter.run ?stats ?budget ?pool ~max_rounds ~costs g
         in
         rounds := !rounds + r;
         match verdict with
         | Value_iter.No_negative_cycle -> lo := mid
         | Value_iter.Negative_cycle c -> lower_witness c
         | Value_iter.Inconclusive -> (
           (* truncation hit: settle this test with the exact engine *)
           match Bellman_ford.run (Bellman_ford.Int costs) g with
           | Bellman_ford.Feasible _ -> lo := mid
           | Bellman_ford.Negative_cycle c -> lower_witness c)
       end
     done
   with Budget.Exceeded _ -> ());
  if tr then begin
    Trace.counter_int sp_tests !tests;
    Trace.end_span sp_lane
  end;
  {
    lo = !lo;
    hi = !hi;
    witness = !witness;
    tests = !tests;
    rounds = !rounds;
    converged = interval_width () <= width;
  }
