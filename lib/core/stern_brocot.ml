(* Exact optimum by mediant search on the Stern–Brocot tree.

   λ* is a rational with bounded denominator — at most n for cycle
   means, at most the total transit time for cost-to-time ratios — and
   every probe "is λ below, at, or above the optimum?" is one exact
   integer negative-cycle test (Critical.locate: Bellman–Ford over the
   re-costed graph plus a tight-arc cycle search).  The search walks
   the Stern–Brocot tree: it keeps an interval (L, R] containing λ*
   whose endpoints are unimodular (bc − ad = 1, so every interior
   rational has denominator ≥ den L + den R), probes the mediant, and
   descends left or right.  Two accelerations keep the walk short:

   - runs in the same direction take doubling k-fold mediant steps
     against the fixed opposite endpoint (the continued-fraction
     expansion of λ* in O(log) probes per term) — k-fold steps toward
     R preserve unimodularity, so only single steps ever move R;
   - every Above verdict returns a witness cycle whose exact ratio
     becomes the new attained upper bound [hi]; when the mediant
     reaches [hi], the probe targets [hi] itself, so the search also
     enjoys the witness-descent convergence of the exact finisher.

   Once den L + den R exceeds the denominator bound, no rational of
   bounded denominator is left strictly inside the interval, so λ*
   must equal the attained bound [hi] — the closing probe at [hi]
   returns the Optimal witness.  Everything is integer arithmetic;
   no float ever enters the answer. *)

let tick stats budget =
  (match budget with Some b -> Budget.tick b | None -> ());
  match stats with
  | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
  | None -> ()

let search ?stats ?budget ~problem ~dmax g =
  let den = Critical.den problem g in
  let c0 = Critical.any_cycle ~who:"Stern_brocot" g in
  let hi = ref (Critical.ratio_of_cycle g ~den c0) in
  let lower_int = fst (Critical.lambda_bounds problem g) in
  (* L = la/lb < λ* (strict, from the a-priori bound), R = rc/rd ≥ λ*;
     1/0 is the tree's right sentinel and keeps (L, R) unimodular *)
  let la = ref (lower_int - 1) and lb = ref 1 in
  let rc = ref 1 and rd = ref 0 in
  let step = ref 1 in
  let result = ref None in
  let probe q =
    tick stats budget;
    Critical.locate ?stats ~den g q
  in
  (* probe the attained bound itself: λ* ≤ hi, so Below is impossible —
     either hi is optimal or the witness descends strictly *)
  let probe_hi () =
    step := 1;
    match probe !hi with
    | Critical.Optimal c -> result := Some (!hi, c)
    | Critical.Above c -> hi := Critical.ratio_of_cycle g ~den c
    | Critical.Below -> assert false
  in
  while !result = None do
    if !lb + !rd > dmax then
      (* interior rationals now have denominator > dmax ≥ den λ* *)
      probe_hi ()
    else begin
      (* k-fold mediant toward R, k clamped against the denominator
         bound and native-int overflow *)
      let k =
        let k = !step in
        let k = if !rd > 0 then min k (max 1 (((2 * dmax) / !rd) + 1)) else k in
        let cap v = if v = 0 then k else max 1 (max_int / 8 / v) in
        min k (min (cap (abs !rc)) (cap !rd))
      in
      let mn = !la + (k * !rc) and md = !lb + (k * !rd) in
      let m = Ratio.make mn md in
      if Ratio.leq !hi m then probe_hi ()
      else
        match probe m with
        | Critical.Optimal c -> result := Some (m, c)
        | Critical.Below ->
          (* λ* > m; k-fold steps against the fixed R stay unimodular *)
          la := mn;
          lb := md;
          step := 2 * k
        | Critical.Above c ->
          (* harvest the witness; only a single (k = 1) mediant may
             move R — a k-fold jump would break unimodularity *)
          if k = 1 then begin
            rc := mn;
            rd := md
          end;
          step := 1;
          let r = Critical.ratio_of_cycle g ~den c in
          if Ratio.lt r !hi then hi := r
    end
  done;
  Option.get !result

let minimum_cycle_mean ?stats ?budget ?pool g =
  ignore pool;
  if Digraph.m g = 0 then invalid_arg "Stern_brocot: graph has no arcs";
  search ?stats ?budget ~problem:Critical.Cycle_mean
    ~dmax:(max 1 (Digraph.n g))
    g

let minimum_cycle_ratio ?stats ?budget ?pool g =
  ignore pool;
  if Digraph.m g = 0 then invalid_arg "Stern_brocot: graph has no arcs";
  Critical.assert_ratio_well_posed g;
  search ?stats ?budget ~problem:Critical.Cycle_ratio
    ~dmax:(max 1 (Digraph.total_transit g))
    g
