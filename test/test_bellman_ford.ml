let costs g = Bellman_ford.Int (Array.init (Digraph.m g) (Digraph.weight g))

let negative_cycle c g =
  match Bellman_ford.run c g with
  | Bellman_ford.Feasible _ -> None
  | Bellman_ford.Negative_cycle c -> Some c

let test_feasible () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 2); (1, 2, 3); (2, 0, -4) ] in
  match Bellman_ford.run (costs g) g with
  | Bellman_ford.Negative_cycle _ -> Alcotest.fail "cycle weight is +1, not negative"
  | Bellman_ford.Feasible d ->
    Digraph.iter_arcs g (fun a ->
        Alcotest.(check bool) "potential inequality" true
          (d.(Digraph.dst g a) <= d.(Digraph.src g a) + Digraph.weight g a))

let test_negative_cycle () =
  let g =
    Digraph.of_weighted_arcs 4
      [ (0, 1, 1); (1, 2, -2); (2, 1, -1); (2, 3, 5) ]
  in
  match negative_cycle (costs g) g with
  | None -> Alcotest.fail "cycle 1->2->1 has weight -3"
  | Some c ->
    Alcotest.(check bool) "is a cycle" true (Digraph.is_cycle g c);
    Alcotest.(check bool) "negative weight" true (Digraph.cycle_weight g c < 0)

let test_negative_self_loop () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 3); (1, 1, -1) ] in
  match negative_cycle (costs g) g with
  | Some [ a ] ->
    Alcotest.(check int) "the self loop" 1 a
  | Some _ -> Alcotest.fail "expected a length-1 cycle"
  | None -> Alcotest.fail "missed negative self loop"

let test_zero_cycle_not_negative () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 5); (1, 0, -5) ] in
  Alcotest.(check bool) "zero cycle is not negative" true
    (negative_cycle (costs g) g = None)

let test_custom_cost () =
  (* recost so the cycle becomes negative *)
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 5); (1, 0, -5) ] in
  let c = Bellman_ford.Int (Array.init 2 (fun a -> Digraph.weight g a - 1)) in
  Alcotest.(check bool) "shifted costs reveal a cycle" true
    (negative_cycle c g <> None)

let test_length_mismatch () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 5); (1, 0, -5) ] in
  Alcotest.check_raises "one cost per arc"
    (Invalid_argument "Bellman_ford.run: costs length <> arc count")
    (fun () -> ignore (Bellman_ford.run (Bellman_ford.Float [| 1.0 |]) g))

let test_disconnected_potentials () =
  (* virtual-source form must cover disconnected graphs *)
  let g = Digraph.of_weighted_arcs 4 [ (0, 1, -7); (2, 3, -7) ] in
  match Bellman_ford.run (costs g) g with
  | Bellman_ford.Negative_cycle _ -> Alcotest.fail "acyclic graph has potentials"
  | Bellman_ford.Feasible d ->
    Alcotest.(check bool) "both components constrained" true
      (d.(1) <= d.(0) - 7 && d.(3) <= d.(2) - 7)

let test_relax_counting () =
  (* negative costs force relaxations even from the all-zero virtual
     source start *)
  let g = Sprand.generate ~seed:2 ~n:30 ~m:90 () in
  let c = Bellman_ford.Int (Array.init 90 (fun a -> Digraph.weight g a - 10001)) in
  let count = ref 0 in
  ignore (Bellman_ford.run ~on_relax:(fun () -> incr count) c g);
  Alcotest.(check bool) "some relaxations happen" true (!count > 0)

let test_float_variant () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 3); (1, 2, 3); (2, 0, 3) ] in
  (* mean is 3: negative iff lambda > 3 *)
  let cost lambda = Bellman_ford.Float (Critical.real_costs Critical.Cycle_mean g lambda) in
  Alcotest.(check bool) "no cycle below the mean" true
    (negative_cycle (cost 2.9) g = None);
  match negative_cycle (cost 3.1) g with
  | Some c -> Alcotest.(check bool) "cycle found above the mean" true (Digraph.is_cycle g c)
  | None -> Alcotest.fail "lambda=3.1 must reveal the cycle"

(* property: outcome matches the oracle's minimum cycle weight sign *)
let qcheck_negative_cycle_iff =
  QCheck.Test.make
    ~name:"bellman-ford: negative cycle found iff some cycle is negative"
    ~count:300
    (Helpers.arb_any_graph ~max_n:7 ~max_m:18 ~wlo:(-10) ~whi:10 ())
    (fun g ->
      let has_neg = ref false in
      ignore
        (Cycles.iter_cycles g (fun c ->
             if Digraph.cycle_weight g c < 0 then has_neg := true));
      match negative_cycle (costs g) g with
      | Some c ->
        Digraph.is_cycle g c && Digraph.cycle_weight g c < 0 && !has_neg
      | None -> not !has_neg)

let qcheck_potentials_feasible =
  QCheck.Test.make ~name:"bellman-ford: returned potentials are feasible"
    ~count:300
    (Helpers.arb_any_graph ~max_n:8 ~max_m:16 ~wlo:0 ~whi:15 ())
    (fun g ->
      match Bellman_ford.run (costs g) g with
      | Bellman_ford.Negative_cycle _ -> false (* non-negative weights *)
      | Bellman_ford.Feasible d ->
        Digraph.fold_arcs g
          (fun ok a ->
            ok && d.(Digraph.dst g a) <= d.(Digraph.src g a) + Digraph.weight g a)
          true)

(* property: the one engine reproduces the two engines it replaced.
   Float runs keep the published drain exactly: same verdict, same
   potentials, same cycle, same relaxation count.  Int runs also search
   the predecessor graph every n relaxations, and an inconclusive search
   changes nothing, so a feasible Int run is the reference run (same
   potentials, same count); on a negative cycle the verdict agrees, the
   arcs form a cycle of negative cost, and the search can only stop the
   run sooner. *)
let qcheck_matches_reference =
  QCheck.Test.make ~name:"bellman-ford: run matches the reference engines"
    ~count:500
    (QCheck.pair
       (Helpers.arb_any_graph ~max_n:9 ~max_m:24 ~wlo:(-10) ~whi:10 ~tmax:3 ())
       (QCheck.float_range (-6.0) 6.0))
    (fun (g, lambda) ->
      let counted f =
        let k = ref 0 in
        let r = f (fun () -> incr k) in
        (r, !k)
      in
      let ints = Array.init (Digraph.m g) (Digraph.weight g) in
      let got_i, k_i =
        counted (fun on_relax -> Bellman_ford.run ~on_relax (Bellman_ford.Int ints) g)
      in
      let ref_i, kr_i =
        counted (fun on_relax ->
            Reference.bf_engine ~on_relax ~costs:ints g ~sources:None)
      in
      let floats = Critical.real_costs Critical.Cycle_ratio g lambda in
      let got_f, k_f =
        counted (fun on_relax ->
            Bellman_ford.run ~on_relax (Bellman_ford.Float floats) g)
      in
      let ref_f, kr_f =
        counted (fun on_relax ->
            Reference.bf_engine_float ~on_relax ~cost:(fun a -> floats.(a)) g)
      in
      let same_int =
        match (got_i, ref_i) with
        | Bellman_ford.Feasible d, Ok (d', _) -> d = d' && k_i = kr_i
        | Bellman_ford.Negative_cycle c, Error _ ->
          Digraph.is_cycle g c
          && List.fold_left (fun s a -> s + ints.(a)) 0 c < 0
          && k_i <= kr_i
        | _ -> false
      in
      let same_float =
        match (got_f, ref_f) with
        | Bellman_ford.Feasible d, Ok d' -> d = d'
        | Bellman_ford.Negative_cycle c, Error c' -> c = c'
        | _ -> false
      in
      same_int && same_float && k_f = kr_f)

(* The predecessor-graph search runs every n relaxations of an Int run;
   it must reuse the engine's buffer, not allocate per search.  A
   reversed path with unit-negative costs is feasible and takes ~n²/2
   relaxations (n/2 searches and more); the same path at zero cost takes
   none.  Same n, same arrays: the two runs must allocate the same minor
   words.  (n stays under the 256-word minor-heap limit, so a per-search
   array would be counted too.) *)
let test_search_allocation_free () =
  let n = 200 in
  let g =
    Digraph.of_weighted_arcs n (List.init (n - 1) (fun i -> (i + 1, i, -1)))
  in
  let searched = costs g and flat = Bellman_ford.Int (Array.make (n - 1) 0) in
  let relaxations = ref 0 in
  (match Bellman_ford.run ~on_relax:(fun () -> incr relaxations) searched g with
  | Bellman_ford.Feasible _ -> ()
  | Bellman_ford.Negative_cycle _ -> Alcotest.fail "a path has no cycle");
  Alcotest.(check bool)
    (Printf.sprintf "%d relaxations run at least 10 searches" !relaxations)
    true
    (!relaxations >= 10 * n);
  let words c =
    let before = Gc.minor_words () in
    ignore (Bellman_ford.run c g);
    Gc.minor_words () -. before
  in
  ignore (words flat);
  ignore (words searched);
  Alcotest.(check (float 0.0))
    "allocation does not grow with the number of searches" (words flat)
    (words searched)

let suite =
  [
    Alcotest.test_case "feasible potentials" `Quick test_feasible;
    Alcotest.test_case "negative cycle extraction" `Quick test_negative_cycle;
    Alcotest.test_case "negative self loop" `Quick test_negative_self_loop;
    Alcotest.test_case "zero cycle not negative" `Quick test_zero_cycle_not_negative;
    Alcotest.test_case "custom cost callback" `Quick test_custom_cost;
    Alcotest.test_case "costs length checked" `Quick test_length_mismatch;
    Alcotest.test_case "disconnected potentials" `Quick test_disconnected_potentials;
    Alcotest.test_case "relaxation counter" `Quick test_relax_counting;
    Alcotest.test_case "float variant" `Quick test_float_variant;
  ]
  @ Helpers.qtests
      [ qcheck_negative_cycle_iff; qcheck_potentials_feasible; qcheck_matches_reference ]
  @ [
      Alcotest.test_case "predecessor search allocates nothing" `Quick
        test_search_allocation_free;
    ]
