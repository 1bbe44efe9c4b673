let test_two_triangles () =
  (* two triangles joined by a one-way bridge *)
  let g =
    Digraph.of_weighted_arcs 6
      [
        (0, 1, 1); (1, 2, 1); (2, 0, 1);
        (2, 3, 1);
        (3, 4, 1); (4, 5, 1); (5, 3, 1);
      ]
  in
  let scc = Scc.compute g in
  Alcotest.(check int) "count" 2 scc.Scc.count;
  Alcotest.(check bool) "0,1,2 together" true
    (scc.Scc.component.(0) = scc.Scc.component.(1)
    && scc.Scc.component.(1) = scc.Scc.component.(2));
  Alcotest.(check bool) "3,4,5 together" true
    (scc.Scc.component.(3) = scc.Scc.component.(4)
    && scc.Scc.component.(4) = scc.Scc.component.(5));
  Alcotest.(check bool) "separated" true
    (scc.Scc.component.(0) <> scc.Scc.component.(3))

let test_reverse_topological_numbering () =
  (* arcs between distinct components must go from higher id to lower *)
  let g =
    Digraph.of_weighted_arcs 5
      [ (0, 1, 1); (1, 0, 1); (1, 2, 1); (2, 3, 1); (3, 2, 1); (3, 4, 1) ]
  in
  let scc = Scc.compute g in
  Digraph.iter_arcs g (fun a ->
      let cu = scc.Scc.component.(Digraph.src g a)
      and cv = scc.Scc.component.(Digraph.dst g a) in
      if cu <> cv then
        Alcotest.(check bool) "reverse topological" true (cu > cv))

let test_members () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 1); (1, 0, 1) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "count" 2 scc.Scc.count;
  let comp01 = scc.Scc.component.(0) in
  Alcotest.(check (list int)) "members of {0,1}" [ 0; 1 ]
    (List.sort compare scc.Scc.members.(comp01));
  Alcotest.(check (list int)) "members of {2}" [ 2 ]
    scc.Scc.members.(scc.Scc.component.(2))

let test_trivial () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 0, 1) ] in
  let scc = Scc.compute g in
  Alcotest.(check bool) "self loop is not trivial" false
    (Scc.is_trivial g scc scc.Scc.component.(0));
  Alcotest.(check bool) "isolated node is trivial" true
    (Scc.is_trivial g scc scc.Scc.component.(1));
  Alcotest.(check int) "one nontrivial component" 1
    (List.length (Scc.nontrivial_components g scc))

let test_single_big_scc () =
  let g = Sprand.generate ~seed:5 ~n:100 ~m:300 () in
  let scc = Scc.compute g in
  Alcotest.(check int) "sprand graphs are strongly connected" 1 scc.Scc.count

let test_empty_and_singleton () =
  let scc0 = Scc.compute (Digraph.of_arcs 0 []) in
  Alcotest.(check int) "empty graph" 0 scc0.Scc.count;
  let scc1 = Scc.compute (Digraph.of_arcs 1 []) in
  Alcotest.(check int) "singleton" 1 scc1.Scc.count

(* Reference implementation: u ~ v iff v reachable from u and u from v. *)
let qcheck_matches_reachability =
  QCheck.Test.make ~name:"scc: agrees with pairwise reachability" ~count:150
    (Helpers.arb_any_graph ~max_n:8 ~max_m:20 ())
    (fun g ->
      let n = Digraph.n g in
      let scc = Scc.compute g in
      let reach = Array.init n (Traversal.reachable g) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same = scc.Scc.component.(u) = scc.Scc.component.(v) in
          let mutually = reach.(u).(v) && reach.(v).(u) in
          if same <> mutually then ok := false
        done
      done;
      !ok)

let qcheck_members_partition =
  QCheck.Test.make ~name:"scc: members form a partition" ~count:150
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ())
    (fun g ->
      let scc = Scc.compute g in
      let all = Array.to_list scc.Scc.members |> List.concat in
      List.sort compare all = List.init (Digraph.n g) Fun.id)

let suite =
  [
    Alcotest.test_case "two triangles" `Quick test_two_triangles;
    Alcotest.test_case "reverse topological ids" `Quick
      test_reverse_topological_numbering;
    Alcotest.test_case "members" `Quick test_members;
    Alcotest.test_case "trivial components" `Quick test_trivial;
    Alcotest.test_case "sprand is one SCC" `Quick test_single_big_scc;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
  ]
  @ Helpers.qtests [ qcheck_matches_reachability; qcheck_members_partition ]

let test_condensation () =
  let g =
    Digraph.of_weighted_arcs 5
      [ (0, 1, 1); (1, 0, 2); (1, 2, 7); (2, 3, 3); (3, 2, 4); (3, 4, 9) ]
  in
  let scc = Scc.compute g in
  let dag = Scc.condensation g scc in
  Alcotest.(check int) "one node per component" scc.Scc.count (Digraph.n dag);
  Alcotest.(check int) "cross arcs kept" 2 (Digraph.m dag);
  Alcotest.(check bool) "condensation is acyclic" true (Traversal.is_acyclic dag)

let qcheck_condensation_acyclic =
  QCheck.Test.make ~name:"scc: condensation is always acyclic" ~count:150
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ())
    (fun g ->
      let scc = Scc.compute g in
      Traversal.is_acyclic (Scc.condensation g scc))

let suite =
  suite
  @ [ Alcotest.test_case "condensation" `Quick test_condensation ]
  @ Helpers.qtests [ qcheck_condensation_acyclic ]

(* The one-pass partition must be indistinguishable from the
   per-component [Digraph.induced] loop it replaced: same subgraphs,
   same renumbering, same back-maps, in the same component order. *)
let qcheck_partition_matches_induced =
  QCheck.Test.make ~name:"scc: partition = per-component induced" ~count:200
    (Helpers.arb_any_graph ~max_n:12 ~max_m:30 ())
    (fun g ->
      let scc = Scc.compute g in
      let subs = Array.to_list (Scc.partition g scc) in
      let cyclic =
        List.filter
          (fun c -> not (Scc.is_trivial g scc c))
          (List.init scc.Scc.count Fun.id)
      in
      List.length cyclic = List.length subs
      && List.for_all2
           (fun c (sp : Scc.subproblem) ->
             let members = List.sort compare scc.Scc.members.(c) in
             let sub, node_of_sub, arc_of_sub = Digraph.induced g members in
             sp.Scc.comp = c
             && Digraph.equal_structure sp.Scc.sub sub
             && sp.Scc.node_of_sub = node_of_sub
             && sp.Scc.arc_of_sub = arc_of_sub)
           cyclic subs)

let qcheck_partition_covers_graph =
  QCheck.Test.make
    ~name:"scc: partition ~nontrivial_only:false covers every node and \
           intra-component arc"
    ~count:150
    (Helpers.arb_any_graph ~max_n:12 ~max_m:30 ())
    (fun g ->
      let scc = Scc.compute g in
      let subs = Scc.partition ~nontrivial_only:false g scc in
      let intra =
        Digraph.fold_arcs g
          (fun acc a ->
            if
              scc.Scc.component.(Digraph.src g a)
              = scc.Scc.component.(Digraph.dst g a)
            then acc + 1
            else acc)
          0
      in
      Array.length subs = scc.Scc.count
      && Array.for_all
           (fun (sp : Scc.subproblem) ->
             Array.length sp.Scc.node_of_sub = Digraph.n sp.Scc.sub
             && Array.length sp.Scc.arc_of_sub = Digraph.m sp.Scc.sub)
           subs
      && Array.fold_left (fun acc sp -> acc + Digraph.n sp.Scc.sub) 0 subs
         = Digraph.n g
      && Array.fold_left (fun acc sp -> acc + Digraph.m sp.Scc.sub) 0 subs
         = intra)

let suite =
  suite
  @ Helpers.qtests
      [ qcheck_partition_matches_induced; qcheck_partition_covers_graph ]

(* Tarjan over the CSR must number components exactly as the Vec-based
   version it replaced: the same component array, not merely the same
   partition, since partition order, Fanout.best tie-breaks and every
   reply follow the ids. *)
let same_ids_as_oracle g =
  let scc = Scc.compute g in
  let count, component = Helpers.oracle_scc g in
  scc.Scc.count = count && scc.Scc.component = component

let qcheck_ids_match_oracle =
  QCheck.Test.make ~name:"scc: component ids = Vec-based Tarjan oracle"
    ~count:300
    (Helpers.arb_any_graph ~max_n:40 ~max_m:80 ())
    same_ids_as_oracle

let qcheck_ids_match_oracle_families =
  QCheck.Test.make ~name:"scc: component ids = oracle on every family"
    ~count:200 (Helpers.arb_family ()) same_ids_as_oracle

let test_ids_match_oracle_deep () =
  (* a long chain of 2-cycles: deep DFS, many components *)
  let g = Families.many_scc ~seed:3 ~components:300 ~size:2 () in
  Alcotest.(check bool) "many_scc" true (same_ids_as_oracle g);
  let g = Families.ring 20_000 in
  Alcotest.(check bool) "ring" true (same_ids_as_oracle g)

(* one component covering every node: the subproblem is the graph *)
let single_is_shared ?nontrivial_only g =
  let scc = Scc.compute g in
  match Scc.partition ?nontrivial_only g scc with
  | [| sp |] ->
    sp.Scc.sub == g && sp.Scc.comp = 0
    && sp.Scc.node_of_sub = Array.init (Digraph.n g) Fun.id
    && sp.Scc.arc_of_sub = Array.init (Digraph.m g) Fun.id
  | _ -> false

let qcheck_single_scc_shared =
  QCheck.Test.make ~name:"scc: single-component partition returns g itself"
    ~count:200
    (Helpers.arb_strongly_connected ~max_n:12 ~max_extra:20 ())
    (fun g -> single_is_shared g && single_is_shared ~nontrivial_only:false g)

let test_single_node_cases () =
  let lone = Digraph.of_arcs 1 [] in
  Alcotest.(check int) "acyclic lone node: nothing kept" 0
    (Array.length (Scc.partition lone (Scc.compute lone)));
  Alcotest.(check bool) "kept on request" true
    (single_is_shared ~nontrivial_only:false lone);
  Alcotest.(check bool) "self-loop" true
    (single_is_shared (Digraph.of_arcs 1 [ (0, 0, 3, 1) ]))

let suite =
  suite
  @ [
      Alcotest.test_case "component ids = oracle (deep)" `Quick
        test_ids_match_oracle_deep;
      Alcotest.test_case "single-node partitions" `Quick test_single_node_cases;
    ]
  @ Helpers.qtests
      [ qcheck_ids_match_oracle; qcheck_ids_match_oracle_families;
        qcheck_single_scc_shared ]
