let certify ?(objective = Solver.Minimize) ?(problem = Solver.Cycle_mean) g
    lambda cycle =
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
    else begin
      (* optimality: no improving cycle under the scaled integer costs *)
      let costs = Critical.scaled_costs g ~den lambda in
      if objective = Solver.Maximize then Array.map_inplace (fun c -> -c) costs;
      match Bellman_ford.run (Bellman_ford.Int costs) g with
      | Bellman_ford.Feasible _ -> Ok ()
      | Bellman_ford.Negative_cycle better ->
        let bw = Digraph.cycle_weight g better in
        let bd = List.fold_left (fun s a -> s + den a) 0 better in
        Error
          (Printf.sprintf "found a better cycle of ratio %s"
             (Ratio.to_string (Ratio.make bw bd)))
    end
  end

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
