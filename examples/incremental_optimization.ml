(* Optimization loops re-solve the cycle mean after every local edit —
   the reason the paper cares about algorithm speed in the first place
   ("their applications require that they be run many times", §1.3).

   This example performs a crude timing optimization of a synthetic
   circuit: find the maximum mean cycle (the performance bottleneck),
   speed up the slowest combinational path on it (e.g. by resizing
   gates), and repeat.  Each re-solve runs in a Dyn session, which
   starts from the previous optimum: one exact probe classifies it
   against the edited graph, and Newton's descent takes over from
   there, so a re-solve costs a handful of probes.

   Run with: dune exec examples/incremental_optimization.exe *)

let () =
  (* register-to-register delay graph of a synthetic circuit; we
     optimize the MAXIMUM cycle mean, i.e. minimize the clock period *)
  let g = Circuit.generate ~seed:9 ~registers:400 ~density:1.9 () in
  let s = Dyn.create ~objective:Solver.Maximize g in
  let budget = 12 in
  Printf.printf "%-5s %-12s %-28s %s\n" "step" "period" "bottleneck arc"
    "probes";
  let total_probes = ref 0 in
  (try
     for step = 1 to budget do
       let r = Option.get (Dyn.query s) in
       let probes = r.Dyn.stats.Stats.oracle_calls in
       total_probes := !total_probes + probes;
       (* slowest arc on the critical cycle *)
       let worst =
         List.fold_left
           (fun acc a ->
             match acc with
             | Some b when Dyn.arc_weight s b >= Dyn.arc_weight s a -> acc
             | _ -> Some a)
           None r.Dyn.cycle
       in
       let a = Option.get worst in
       let delay = Dyn.arc_weight s a in
       Printf.printf "%-5d %-12s #%d (%d->%d, delay %d)%*s %d\n" step
         (Ratio.to_string r.Dyn.lambda) a (Dyn.arc_src s a) (Dyn.arc_dst s a)
         delay
         (12 - String.length (string_of_int delay)) ""
         probes;
       if delay <= 2 then raise Exit;
       (* "optimize" the path: 25% faster, at least one unit *)
       Dyn.set_weight s a (max 1 (delay - (delay / 4) - 1))
     done
   with Exit -> print_endline "bottleneck can no longer be improved");
  Printf.printf "total exact probes across all re-solves: %d\n" !total_probes
