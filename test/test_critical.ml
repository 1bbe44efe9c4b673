let den1 _ = 1

let test_scaled_cost () =
  let g = Digraph.of_arcs 2 [ (0, 1, 7, 3); (1, 0, 5, 2) ] in
  let lambda = Helpers.r 3 2 in
  (* cost = 2·w − 3·t *)
  Alcotest.(check int) "arc 0" ((2 * 7) - (3 * 3))
    (Critical.scaled_costs g ~den:(Digraph.transit g) lambda).(0);
  Alcotest.(check int) "arc 1 (mean)" ((2 * 5) - 3)
    (Critical.scaled_costs g ~den:den1 lambda).(1)

let test_ratio_of_cycle () =
  let g = Digraph.of_arcs 2 [ (0, 1, 7, 3); (1, 0, 5, 2) ] in
  Helpers.check_ratio "mean" (Helpers.r 6 1)
    (Critical.ratio_of_cycle g ~den:den1 [ 0; 1 ]);
  Helpers.check_ratio "ratio" (Helpers.r 12 5)
    (Critical.ratio_of_cycle g ~den:(Digraph.transit g) [ 0; 1 ])

let test_cycle_in () =
  let g =
    Digraph.of_weighted_arcs 4 [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (2, 3, 1) ]
  in
  (match Critical.cycle_in g (fun _ -> true) with
  | Some c -> Alcotest.(check bool) "found a valid cycle" true (Digraph.is_cycle g c)
  | None -> Alcotest.fail "graph has a cycle");
  Alcotest.(check bool) "restricted to a DAG: none" true
    (Critical.cycle_in g (fun a -> a <> 2) = None)

let fixture () = Families.two_cycles ~len1:2 ~w1:4 ~len2:3 ~w2:1

let test_locate_below () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 1 2) with
  | Critical.Below -> ()
  | _ -> Alcotest.fail "1/2 < min mean 1"

let test_locate_optimal () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 1 1) with
  | Critical.Optimal c ->
    Helpers.check_ratio "witness mean" (Helpers.r 1 1)
      (Critical.ratio_of_cycle (fixture ()) ~den:den1 c)
  | _ -> Alcotest.fail "1 is the optimum"

let test_locate_above () =
  match Critical.locate ~den:den1 (fixture ()) (Helpers.r 3 1) with
  | Critical.Above c ->
    Alcotest.(check bool) "strictly better cycle" true
      (Ratio.lt (Critical.ratio_of_cycle (fixture ()) ~den:den1 c) (Helpers.r 3 1))
  | _ -> Alcotest.fail "3 > optimum 1"

let test_improve_to_optimal () =
  let g = fixture () in
  (* start from the BAD cycle (mean 4) *)
  let bad =
    List.filter (fun a -> Digraph.weight g a = 4) (List.init (Digraph.m g) Fun.id)
  in
  Alcotest.(check bool) "fixture sanity" true (Digraph.is_cycle g bad);
  let lambda, witness = Critical.improve_to_optimal ~den:den1 g bad in
  Helpers.check_ratio "descended to optimum" (Helpers.r 1 1) lambda;
  Alcotest.(check bool) "witness valid" true (Digraph.is_cycle g witness)

let test_improve_rejects_non_cycle () =
  Alcotest.check_raises "not a cycle"
    (Invalid_argument "Critical.improve_to_optimal: not a cycle") (fun () ->
      ignore (Critical.improve_to_optimal ~den:den1 (fixture ()) [ 0 ]))

let test_critical_arcs () =
  let g = fixture () in
  let crit = Critical.critical_arcs ~den:den1 g (Helpers.r 1 1) in
  (* exactly the arcs of the weight-1 cycle (3 arcs) *)
  Alcotest.(check int) "three critical arcs" 3 (List.length crit);
  List.iter
    (fun a -> Alcotest.(check int) "weight 1" 1 (Digraph.weight g a))
    crit;
  (* below the optimum the tight subgraph is acyclic: nothing critical *)
  Alcotest.(check (list int)) "below optimum: empty" []
    (Critical.critical_arcs ~den:den1 g (Helpers.r 1 2))

let qcheck_locate_against_oracle =
  QCheck.Test.make ~name:"critical: locate agrees with the oracle" ~count:300
    (QCheck.pair
       (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
       (QCheck.int_range (-25) 25))
    (fun (g, num) ->
      let lambda = Ratio.make num 2 in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      match Critical.locate ~den:den1 g lambda with
      | Critical.Below -> Ratio.lt lambda opt
      | Critical.Optimal c ->
        Ratio.equal lambda opt
        && Ratio.equal (Critical.ratio_of_cycle g ~den:den1 c) lambda
      | Critical.Above c ->
        Ratio.lt opt lambda
        && Ratio.lt (Critical.ratio_of_cycle g ~den:den1 c) lambda)

let qcheck_improve_reaches_oracle =
  QCheck.Test.make
    ~name:"critical: improve_to_optimal reaches the oracle optimum" ~count:200
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
    (fun g ->
      let start = Critical.cycle_in g (fun _ -> true) |> Option.get in
      let lambda, w = Critical.improve_to_optimal ~den:den1 g start in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      Ratio.equal lambda opt
      && Ratio.equal (Critical.ratio_of_cycle g ~den:den1 w) opt)

let suite =
  [
    Alcotest.test_case "scaled_cost" `Quick test_scaled_cost;
    Alcotest.test_case "ratio_of_cycle" `Quick test_ratio_of_cycle;
    Alcotest.test_case "cycle_in" `Quick test_cycle_in;
    Alcotest.test_case "locate: below" `Quick test_locate_below;
    Alcotest.test_case "locate: optimal" `Quick test_locate_optimal;
    Alcotest.test_case "locate: above" `Quick test_locate_above;
    Alcotest.test_case "improve_to_optimal" `Quick test_improve_to_optimal;
    Alcotest.test_case "improve rejects non-cycles" `Quick
      test_improve_rejects_non_cycle;
    Alcotest.test_case "critical_arcs" `Quick test_critical_arcs;
  ]
  @ Helpers.qtests [ qcheck_locate_against_oracle; qcheck_improve_reaches_oracle ]

(* critical_arcs must be exactly the arcs lying on some optimum-mean
   cycle; the oracle enumerates all cycles, so it can say precisely
   which arcs those are. *)
let qcheck_critical_arcs_exact =
  QCheck.Test.make
    ~name:"critical: critical_arcs = arcs on optimum cycles (oracle)"
    ~count:150
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:9 ())
    (fun g ->
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let expected = Hashtbl.create 16 in
      ignore
        (Cycles.iter_cycles g (fun c ->
             let mean =
               Ratio.make (Digraph.cycle_weight g c) (List.length c)
             in
             if Ratio.equal mean opt then
               List.iter (fun a -> Hashtbl.replace expected a ()) c));
      let got = Critical.critical_arcs ~den:den1 g opt in
      List.sort compare got
      = List.sort compare (Hashtbl.fold (fun a () l -> a :: l) expected []))

let qcheck_locate_monotone =
  (* Below / Optimal / Above must be monotone in lambda *)
  QCheck.Test.make ~name:"critical: locate is monotone in lambda" ~count:150
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:9 ())
    (fun g ->
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let below = Ratio.sub opt Ratio.one in
      let above = Ratio.add opt Ratio.one in
      (match Critical.locate ~den:den1 g below with
      | Critical.Below -> true
      | _ -> false)
      && (match Critical.locate ~den:den1 g opt with
         | Critical.Optimal _ -> true
         | _ -> false)
      &&
      match Critical.locate ~den:den1 g above with
      | Critical.Above _ -> true
      | _ -> false)

let suite =
  suite @ Helpers.qtests [ qcheck_critical_arcs_exact; qcheck_locate_monotone ]

(* G_λ helpers: the per-problem denominator, the a-priori bounds, the
   float costs and the acyclic-input fallback *)
let test_problem_helpers () =
  let g = Digraph.of_arcs 3 [ (0, 1, 7, 3); (1, 2, -4, 2); (2, 0, 5, 1) ] in
  Alcotest.(check int) "mean den" 1 (Critical.den Critical.Cycle_mean g 0);
  Alcotest.(check int) "ratio den" 3 (Critical.den Critical.Cycle_ratio g 0);
  Alcotest.(check (pair int int)) "mean bounds" (-4, 7)
    (Critical.lambda_bounds Critical.Cycle_mean g);
  Alcotest.(check (pair int int)) "ratio bounds" (-22, 22)
    (Critical.lambda_bounds Critical.Cycle_ratio g);
  Alcotest.(check (array (float 0.0))) "real costs" [| 7.0 -. 4.5; -4.0 -. 3.0; 5.0 -. 1.5 |]
    (Critical.real_costs Critical.Cycle_ratio g 1.5);
  Alcotest.(check (array int)) "scaled costs" [| 14 - 9; -8 - 6; 10 - 3 |]
    (Critical.scaled_costs g ~den:(Digraph.transit g) (Helpers.r 3 2));
  Alcotest.(check int) "any cycle" 3 (List.length (Critical.any_cycle ~who:"t" g));
  Alcotest.check_raises "acyclic"
    (Invalid_argument "t: input graph is acyclic") (fun () ->
      ignore (Critical.any_cycle ~who:"t" (Digraph.of_weighted_arcs 2 [ (0, 1, 1) ])))

(* Allocation bound per negative-cycle probe: O(n + m) arrays are fine
   (and at this size land in the major heap), but the relaxation loop
   itself must not allocate — no boxed float per arc, no closure per
   scan, no queue cell per enqueue.  Guards the float probes of
   Lawler's bisection and the integer probe of the exact lane. *)
let test_probe_allocation () =
  let n = 1024 and m = 3072 in
  let g = Sprand.generate ~seed:1 ~n ~m () in
  let bound = float_of_int (4 * (n + m)) in
  let per_call f =
    let stats = Stats.create () in
    let before = Gc.minor_words () in
    f stats;
    (Gc.minor_words () -. before) /. float_of_int (max 1 stats.Stats.oracle_calls)
  in
  let lawler =
    per_call (fun stats ->
        ignore (Lawler.minimum_cycle_mean ~stats ~exact_finish:false g))
  in
  let lambda, _ = Howard.minimum_cycle_mean g in
  let locate =
    per_call (fun stats ->
        List.iter
          (fun l -> ignore (Critical.locate ~stats ~den:den1 g l))
          [ lambda; Ratio.add lambda (Ratio.of_int 1); Ratio.sub lambda (Ratio.of_int 1) ])
  in
  if lawler > bound then
    Alcotest.failf "Lawler: %.0f minor words per oracle call > %.0f" lawler bound;
  if locate > bound then
    Alcotest.failf "Critical.locate: %.0f minor words per call > %.0f" locate bound

let suite =
  suite
  @ [
      Alcotest.test_case "G_λ problem helpers" `Quick test_problem_helpers;
      Alcotest.test_case "probe allocation bound" `Quick test_probe_allocation;
    ]
