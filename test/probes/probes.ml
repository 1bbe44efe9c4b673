(* Prints one line per (graph, solver): λ, the operation counts and
   the witness arcs; then the certificate verdict and the size of the
   critical subgraph at the optimum.  See dune for how the output is
   checked. *)

let pr = Printf.printf

let arcs c = String.concat "," (List.map string_of_int c)

let solvers ratio =
  let pick mean rat = if ratio then rat else mean in
  [
    ( "sb",
      fun ~stats g ->
        (pick Stern_brocot.minimum_cycle_mean Stern_brocot.minimum_cycle_ratio)
          ~stats ?budget:None ?pool:None g );
    ( "lawler",
      fun ~stats g ->
        (pick Lawler.minimum_cycle_mean Lawler.minimum_cycle_ratio)
          ~stats ?epsilon:None ?exact_finish:None ?improved:None g );
    ( "lawler+",
      fun ~stats g ->
        (pick Lawler.minimum_cycle_mean Lawler.minimum_cycle_ratio)
          ~stats ?epsilon:None ?exact_finish:None ~improved:true g );
    ( "lawler-approx",
      fun ~stats g ->
        (pick Lawler.minimum_cycle_mean Lawler.minimum_cycle_ratio)
          ~stats ?epsilon:None ~exact_finish:false ?improved:None g );
    ( "oa1",
      fun ~stats g ->
        (pick Oa.oa1_minimum_cycle_mean Oa.oa1_minimum_cycle_ratio)
          ~stats ?epsilon:None g );
    ( "oa2",
      fun ~stats g ->
        (pick Oa.oa2_minimum_cycle_mean Oa.oa2_minimum_cycle_ratio)
          ~stats ?epsilon:None g );
    ( "burns",
      fun ~stats g ->
        (pick Burns.minimum_cycle_mean Burns.minimum_cycle_ratio)
          ~stats ?epsilon:None g );
  ]

let run_graph name ~ratio g =
  let problem = if ratio then Solver.Cycle_ratio else Solver.Cycle_mean in
  let sb = ref None in
  List.iter
    (fun (alg, solve) ->
      let stats = Stats.create () in
      let lambda, cycle = solve ~stats g in
      if !sb = None then sb := Some (lambda, cycle);
      pr "%s %s lambda=%s iters=%d relax=%d oracle=%d cycle=[%s]\n" name alg
        (Ratio.to_string lambda) stats.Stats.iterations stats.Stats.relaxations
        stats.Stats.oracle_calls (arcs cycle))
    (solvers ratio);
  let lambda, cycle = Option.get !sb in
  let verdict =
    match Verify.certify ~problem g lambda cycle with
    | Ok () -> "ok"
    | Error msg -> msg
  in
  let den = if ratio then Digraph.transit g else fun _ -> 1 in
  pr "%s certify=%s critical_arcs=%d\n" name verdict
    (List.length (Critical.critical_arcs ~den g lambda))

let () =
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let m = 3 * n in
          run_graph
            (Printf.sprintf "mean/n%d/s%d" n seed)
            ~ratio:false
            (Sprand.generate ~seed ~n ~m ());
          run_graph
            (Printf.sprintf "ratio/n%d/s%d" n seed)
            ~ratio:true
            (Sprand.generate ~seed ~transits:(1, 5) ~n ~m ()))
        [ 1; 2; 3 ];
      List.iter
        (fun seed ->
          run_graph
            (Printf.sprintf "signed/n%d/s%d" n seed)
            ~ratio:false
            (Sprand.generate ~seed ~weights:(-50, 50) ~n ~m:(3 * n) ()))
        [ 1; 2 ])
    [ 64; 512 ]
