type potentials = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type proof = Stored | Probed of potentials option

(* Both checks read the arcs as [sign·(q·w(a) − p·den(a))], the costs
   of G_λ for λ = p/q, negated for maximization. *)
let sign objective = if objective = Solver.Maximize then -1 else 1

(* One pass over the arcs: [d(dst) <= d(src) + cost a] for every arc,
   the costs computed inline so nothing is allocated.  Potentials of
   the wrong length fail; so does a label whose cost could leave the
   native-int range (only a graph that never passed the solver's
   preflight has one), since a wrapped sum proves nothing. *)
let potentials_hold ~objective ~problem g lambda (d : potentials) =
  let n = Digraph.n g and m = Digraph.m g in
  Bigarray.Array1.dim d = n
  && begin
    let p = sign objective * Ratio.num lambda
    and q = sign objective * Ratio.den lambda in
    let wmax = max_int / 4 / max 1 (abs q)
    and tmax = max_int / 4 / max 1 (abs p) in
    let srcs = Digraph.Unsafe.srcs g and dsts = Digraph.Unsafe.dsts g in
    let ws = Digraph.Unsafe.weights g and ts = Digraph.Unsafe.transits g in
    let ratio = problem = Solver.Cycle_ratio in
    let ok = ref true and a = ref 0 in
    while !ok && !a < m do
      let w = Bigarray.Array1.unsafe_get ws !a in
      let t = if ratio then Bigarray.Array1.unsafe_get ts !a else 1 in
      let u = Bigarray.Array1.unsafe_get srcs !a
      and v = Bigarray.Array1.unsafe_get dsts !a in
      let du = Int32.to_int (Bigarray.Array1.unsafe_get d u)
      and dv = Int32.to_int (Bigarray.Array1.unsafe_get d v) in
      ok :=
        w >= -wmax && w <= wmax && t <= tmax
        && dv <= du + ((q * w) - (p * t));
      incr a
    done;
    !ok
  end

(* the probe's potentials, the first [n] entries of [dist], as int32,
   or None if one does not fit *)
let pack (dist : Probe.int_array1) n =
  let fits x =
    x >= Int32.to_int Int32.min_int && x <= Int32.to_int Int32.max_int
  in
  let ok = ref true in
  for v = 0 to n - 1 do
    if not (fits dist.{v}) then ok := false
  done;
  if not !ok then None
  else begin
    let pot = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
    for v = 0 to n - 1 do
      pot.{v} <- Int32.of_int dist.{v}
    done;
    Some pot
  end

(* [keep]: pack the probe's potentials for the caller to store *)
let prove ~keep ?(objective = Solver.Minimize) ?(problem = Solver.Cycle_mean)
    ?stored g lambda cycle =
  let den = Critical.den problem g in
  if cycle = [] then Error "empty witness cycle"
  else if not (Digraph.is_cycle g cycle) then
    Error "witness arcs do not form a cycle"
  else begin
    let w = Digraph.cycle_weight g cycle in
    let d = List.fold_left (fun s a -> s + den a) 0 cycle in
    if d <= 0 then Error "witness cycle has non-positive denominator"
    else if not (Ratio.equal lambda (Ratio.make w d)) then
      Error
        (Printf.sprintf "witness cycle has ratio %s, claimed %s"
           (Ratio.to_string (Ratio.make w d))
           (Ratio.to_string lambda))
    else
      match stored with
      | Some pot when potentials_hold ~objective ~problem g lambda pot ->
        Ok Stored
      | _ -> (
        (* optimality: no improving cycle under the scaled integer costs *)
        let n = Digraph.n g and m = Digraph.m g in
        let probed =
          Probe.borrow ~n ~m (fun ws ->
              Critical.scale_into ws ~den g lambda;
              if objective = Solver.Maximize then
                for a = 0 to m - 1 do
                  ws.costs.{a} <- - ws.costs.{a}
                done;
              match Bellman_ford.probe ws g with
              | None -> Ok (if keep then pack ws.dist n else None)
              | Some better -> Error better)
        in
        match probed with
        | Ok pot -> Ok (Probed pot)
        | Error better ->
          let bw = Digraph.cycle_weight g better in
          let bd = List.fold_left (fun s a -> s + den a) 0 better in
          Error
            (Printf.sprintf "found a better cycle of ratio %s"
               (Ratio.to_string (Ratio.make bw bd))))
  end

let certify_with = prove ~keep:true

let certify ?objective ?problem g lambda cycle =
  Result.map ignore (prove ~keep:false ?objective ?problem g lambda cycle)

let certify_report ?objective ?problem g (r : Solver.report) =
  certify ?objective ?problem g r.Solver.lambda r.Solver.cycle

(* one unit in the last place of x, i.e. the gap to the next float *)
let ulp x =
  if Float.is_finite x then Float.succ (Float.abs x) -. Float.abs x
  else Float.infinity

let rational_certificate ?(problem = Solver.Cycle_mean) g lambda cycle =
  let den = Critical.den problem g in
  if cycle = [] then Error "exact certificate: empty witness cycle"
  else if not (Digraph.is_cycle g cycle) then
    Error "exact certificate: witness arcs do not form a cycle"
  else begin
    (* the certificate is the cycle's integer weight/transit sums —
       never the solver's iterate, float or otherwise *)
    let w = Digraph.cycle_weight g cycle in
    let d = List.fold_left (fun s a -> s + den a) 0 cycle in
    if d <= 0 then
      Error "exact certificate: witness cycle has non-positive denominator"
    else
      let cert = Ratio.make w d in
      if not (Ratio.equal cert lambda) then
        Error
          (Printf.sprintf
             "exact certificate: cycle sums give %s, solver reported %s"
             (Ratio.to_string cert) (Ratio.to_string lambda))
      else
        let f = Ratio.to_float lambda and fc = Ratio.to_float cert in
        if Float.abs (f -. fc) > ulp fc then
          Error
            (Printf.sprintf
               "exact certificate: float answer %.17g is more than 1 ulp \
                from %d/%d"
               f (Ratio.num cert) (Ratio.den cert))
        else Ok cert
  end
