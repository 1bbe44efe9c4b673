let sample () =
  Digraph.of_arcs 4
    [ (0, 1, 5, 1); (1, 2, -3, 2); (2, 0, 7, 1); (2, 3, 0, 4); (3, 3, 2, 1) ]

let test_basic () =
  let g = sample () in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "m" 5 (Digraph.m g);
  Alcotest.(check int) "src 1" 1 (Digraph.src g 1);
  Alcotest.(check int) "dst 1" 2 (Digraph.dst g 1);
  Alcotest.(check int) "weight 1" (-3) (Digraph.weight g 1);
  Alcotest.(check int) "transit 3" 4 (Digraph.transit g 3);
  Alcotest.(check int) "min_weight" (-3) (Digraph.min_weight g);
  Alcotest.(check int) "max_weight" 7 (Digraph.max_weight g);
  Alcotest.(check int) "total_transit" 9 (Digraph.total_transit g)

let test_degrees () =
  let g = sample () in
  Alcotest.(check int) "out 2" 2 (Digraph.out_degree g 2);
  let r = Digraph.reverse g in
  Alcotest.(check int) "in 3" 2 (Digraph.out_degree r 3);
  Alcotest.(check int) "out 3 (self loop)" 1 (Digraph.out_degree g 3);
  Alcotest.(check int) "in 0" 1 (Digraph.out_degree r 0)

let test_iteration () =
  let g = sample () in
  let outs = Digraph.fold_out g 2 (fun acc a -> Digraph.dst g a :: acc) [] in
  Alcotest.(check (list int)) "out neighbours of 2" [ 0; 3 ]
    (List.sort compare outs);
  let ins =
    Digraph.fold_out (Digraph.reverse g) 3 (fun acc a -> Digraph.src g a :: acc) []
  in
  Alcotest.(check (list int)) "in neighbours of 3" [ 2; 3 ]
    (List.sort compare ins);
  Alcotest.(check int) "fold_arcs count" 5 (Digraph.fold_arcs g (fun k _ -> k + 1) 0)

let test_reverse () =
  let g = sample () in
  let h = Digraph.reverse g in
  Alcotest.(check int) "reverse src" (Digraph.dst g 0) (Digraph.src h 0);
  Alcotest.(check int) "reverse dst" (Digraph.src g 0) (Digraph.dst h 0);
  Alcotest.(check int) "reverse preserves weight" (Digraph.weight g 1)
    (Digraph.weight h 1);
  Alcotest.(check bool) "double reverse" true
    (Digraph.equal_structure g (Digraph.reverse h))

let test_map_negate () =
  let g = sample () in
  let h = Digraph.negate_weights g in
  Digraph.iter_arcs g (fun a ->
      Alcotest.(check int) "negated" (-Digraph.weight g a) (Digraph.weight h a));
  let k = Digraph.map_weights g (fun a -> 2 * Digraph.weight g a) in
  Alcotest.(check int) "doubled" 10 (Digraph.weight k 0)

let test_induced () =
  let g = sample () in
  let sub, node_of, arc_of = Digraph.induced g [ 2; 3 ] in
  Alcotest.(check int) "sub n" 2 (Digraph.n sub);
  (* arcs kept: 2->3 and 3->3 *)
  Alcotest.(check int) "sub m" 2 (Digraph.m sub);
  Alcotest.(check (array int)) "node map" [| 2; 3 |] node_of;
  Alcotest.(check (array int)) "arc map" [| 3; 4 |] arc_of;
  Alcotest.(check int) "renumbered src" 0 (Digraph.src sub 0);
  Alcotest.(check int) "renumbered dst" 1 (Digraph.dst sub 0)

let test_induced_errors () =
  let g = sample () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Digraph.induced: duplicate node") (fun () ->
      ignore (Digraph.induced g [ 1; 1 ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Digraph.induced: node out of range") (fun () ->
      ignore (Digraph.induced g [ 7 ]))

let test_cycle_predicates () =
  let g = sample () in
  Alcotest.(check bool) "triangle is cycle" true (Digraph.is_cycle g [ 0; 1; 2 ]);
  Alcotest.(check bool) "self loop is cycle" true (Digraph.is_cycle g [ 4 ]);
  Alcotest.(check bool) "path is not cycle" false (Digraph.is_cycle g [ 0; 1 ]);
  Alcotest.(check bool) "empty is not cycle" false (Digraph.is_cycle g []);
  Alcotest.(check bool) "wrong order is not cycle" false
    (Digraph.is_cycle g [ 1; 0; 2 ]);
  Alcotest.(check int) "cycle weight" 9 (Digraph.cycle_weight g [ 0; 1; 2 ]);
  Alcotest.(check int) "cycle transit" 4 (Digraph.cycle_transit g [ 0; 1; 2 ])

let test_arc_between () =
  let g = sample () in
  Alcotest.(check (option int)) "existing" (Some 0) (Digraph.arc_between g 0 1);
  Alcotest.(check (option int)) "missing" None (Digraph.arc_between g 1 0);
  Alcotest.(check (option int)) "self" (Some 4) (Digraph.arc_between g 3 3)

let test_builder_errors () =
  Alcotest.check_raises "negative n"
    (Invalid_argument "Digraph.create_builder: negative node count") (fun () ->
      ignore (Digraph.create_builder (-1)));
  let b = Digraph.create_builder 2 in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Digraph.add_arc: endpoint out of range") (fun () ->
      ignore (Digraph.add_arc b ~src:0 ~dst:2 ~weight:0 ()));
  Alcotest.check_raises "negative transit"
    (Invalid_argument "Digraph.add_arc: negative transit time") (fun () ->
      ignore (Digraph.add_arc b ~src:0 ~dst:1 ~weight:0 ~transit:(-1) ()));
  ignore (Digraph.build b);
  Alcotest.check_raises "reuse after build"
    (Invalid_argument "Digraph.add_arc: builder already built") (fun () ->
      ignore (Digraph.add_arc b ~src:0 ~dst:1 ~weight:0 ()));
  Alcotest.check_raises "double build"
    (Invalid_argument "Digraph.build: builder already built") (fun () ->
      ignore (Digraph.build b))

let test_empty_graph () =
  let g = Digraph.of_arcs 0 [] in
  Alcotest.(check int) "n" 0 (Digraph.n g);
  Alcotest.(check int) "m" 0 (Digraph.m g);
  Alcotest.check_raises "min_weight on arcless"
    (Invalid_argument "Digraph.min_weight: graph has no arcs") (fun () ->
      ignore (Digraph.min_weight g))

let test_parallel_arcs () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 1); (0, 1, 2); (1, 0, 3) ] in
  Alcotest.(check int) "m" 3 (Digraph.m g);
  Alcotest.(check int) "out degree with parallels" 2 (Digraph.out_degree g 0)

let qcheck_csr_consistent =
  QCheck.Test.make ~name:"digraph: CSR out/in views agree with arc list"
    ~count:200
    (Helpers.arb_any_graph ~max_n:10 ~max_m:30 ())
    (fun g ->
      (* the in-view is the reversed graph's out-view: per node, the
         arcs entering it in increasing id order *)
      let r = Digraph.reverse g in
      let all = List.init (Digraph.m g) Fun.id in
      let view h u = List.rev (Digraph.fold_out h u (fun acc a -> a :: acc) []) in
      let agree h endpoint =
        List.concat_map (view h) (List.init (Digraph.n g) Fun.id)
        |> List.sort compare = all
        && List.for_all
             (fun u -> view h u = List.filter (fun a -> endpoint g a = u) all)
             (List.init (Digraph.n g) Fun.id)
      in
      agree g Digraph.src && agree r Digraph.dst)

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_basic;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "iteration" `Quick test_iteration;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "map/negate weights" `Quick test_map_negate;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "induced errors" `Quick test_induced_errors;
    Alcotest.test_case "cycle predicates" `Quick test_cycle_predicates;
    Alcotest.test_case "arc_between" `Quick test_arc_between;
    Alcotest.test_case "builder errors" `Quick test_builder_errors;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
  ]
  @ Helpers.qtests [ qcheck_csr_consistent ]
