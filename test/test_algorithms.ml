(* Every algorithm of the study is run over shared fixtures with known
   answers, then cross-validated against the brute-force oracle and
   certified on random strongly connected graphs (qcheck). *)

let den1 _ = 1

let all_mean =
  List.map
    (fun a ->
      ( Registry.display_name a,
        fun ?stats g -> Registry.minimum_cycle_mean a ?stats g ))
    Registry.all

let all_ratio =
  List.map
    (fun a ->
      ( Registry.display_name a,
        fun ?stats g -> Registry.minimum_cycle_ratio a ?stats g ))
    Registry.all

(* -------------------- fixtures with known answers ------------------ *)

type fixture = { fname : string; graph : Digraph.t; expected : Ratio.t }

let fixtures =
  [
    {
      fname = "self loop";
      graph = Digraph.of_weighted_arcs 1 [ (0, 0, 7) ];
      expected = Helpers.r 7 1;
    };
    {
      fname = "two self loops";
      graph = Digraph.of_weighted_arcs 1 [ (0, 0, 7); (0, 0, -2) ];
      expected = Helpers.r (-2) 1;
    };
    {
      fname = "uniform ring";
      graph = Families.ring ~weight:(fun _ -> 3) 6;
      expected = Helpers.r 3 1;
    };
    {
      fname = "ring with mixed weights";
      graph = Families.ring ~weight:(fun i -> i - 2) 5;
      (* weights -2 -1 0 1 2: mean 0 *)
      expected = Ratio.zero;
    };
    {
      fname = "two cycles sharing a node";
      graph = Families.two_cycles ~len1:3 ~w1:5 ~len2:4 ~w2:2;
      expected = Helpers.r 2 1;
    };
    {
      fname = "short heavy vs long light";
      graph = Families.two_cycles ~len1:1 ~w1:3 ~len2:7 ~w2:2;
      expected = Helpers.r 2 1;
    };
    {
      fname = "negative weights";
      graph =
        Digraph.of_weighted_arcs 3
          [ (0, 1, -5); (1, 2, 3); (2, 0, -1); (1, 0, 4) ];
      expected = Helpers.r (-1) 1;
      (* triangle mean (-5+3-1)/3 = -1; 2-cycle (-5+4)/2 = -1/2 *)
    };
    {
      fname = "parallel arcs";
      graph = Digraph.of_weighted_arcs 2 [ (0, 1, 10); (0, 1, 2); (1, 0, 4) ];
      expected = Helpers.r 3 1;
    };
    {
      fname = "all cycles equal mean";
      graph = Families.ring ~weight:(fun _ -> 4) 3;
      expected = Helpers.r 4 1;
      (* exercises the λ* = w_max edge case in Lawler's bisection *)
    };
  ]

let fixture_cases =
  List.concat_map
    (fun fx ->
      List.map
        (fun (name, solve) ->
          Alcotest.test_case
            (Printf.sprintf "%s on %s" name fx.fname)
            `Quick
            (fun () ->
              let lambda, cycle = solve ?stats:None fx.graph in
              Helpers.check_ratio "lambda" fx.expected lambda;
              Alcotest.(check bool) "witness is a cycle" true
                (Digraph.is_cycle fx.graph cycle);
              Helpers.check_ratio "witness achieves lambda" fx.expected
                (Critical.ratio_of_cycle fx.graph ~den:den1 cycle)))
        all_mean)
    fixtures

(* -------------------- ratio fixtures ------------------------------- *)

type rfixture = { rname : string; rgraph : Digraph.t; rexpected : Ratio.t }

let ratio_fixtures =
  [
    {
      rname = "two-node loop with transits";
      rgraph = Digraph.of_arcs 2 [ (0, 1, 6, 2); (1, 0, 2, 2) ];
      rexpected = Helpers.r 2 1;
    };
    {
      rname = "loop vs self-loop";
      rgraph = Digraph.of_arcs 2 [ (0, 1, 6, 2); (1, 0, 2, 2); (0, 0, 3, 1) ];
      rexpected = Helpers.r 2 1;
    };
    {
      rname = "light short cycle beats transit-heavy one";
      rgraph =
        Digraph.of_arcs 3
          [ (0, 1, 10, 5); (1, 0, 10, 5); (0, 2, 1, 1); (2, 0, 1, 1) ];
      (* 20/10 = 2 versus 2/2 = 1 *)
      rexpected = Helpers.r 1 1;
    };
  ]

let ratio_fixture_cases =
  List.concat_map
    (fun fx ->
      List.map
        (fun (name, solve) ->
          Alcotest.test_case
            (Printf.sprintf "%s (ratio) on %s" name fx.rname)
            `Quick
            (fun () ->
              let lambda, cycle = solve ?stats:None fx.rgraph in
              Helpers.check_ratio "lambda" fx.rexpected lambda;
              Helpers.check_ratio "witness achieves lambda" fx.rexpected
                (Critical.ratio_of_cycle fx.rgraph
                   ~den:(Digraph.transit fx.rgraph) cycle)))
        all_ratio)
    ratio_fixtures

(* -------------------- input validation ----------------------------- *)

let no_arcs_cases =
  List.map
    (fun (name, solve) ->
      Alcotest.test_case (name ^ " rejects arcless graph") `Quick (fun () ->
          let g = Digraph.of_arcs 1 [] in
          match solve ?stats:None g with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"))
    all_mean

(* -------------------- behavioural details -------------------------- *)

let test_ho_terminates_early () =
  (* a hub-and-spoke graph of small diameter with a cheap self-loop at
     the hub: HO proves optimality within the first few levels *)
  let n = 64 in
  let arcs =
    (0, 0, 1, 1)
    :: List.concat
         (List.init (n - 1) (fun i ->
              [ (0, i + 1, 100, 1); (i + 1, 0, 100, 1) ]))
  in
  let g = Digraph.of_arcs n arcs in
  let stats = Stats.create () in
  let lambda, _ = Ho.minimum_cycle_mean ~stats g in
  Helpers.check_ratio "lambda" (Helpers.r 1 1) lambda;
  Alcotest.(check bool) "early termination" true (stats.Stats.level < n)

let test_karp_level_is_n () =
  let g = Sprand.generate ~seed:3 ~n:40 ~m:100 () in
  let stats = Stats.create () in
  ignore (Karp.minimum_cycle_mean ~stats g);
  Alcotest.(check int) "karp always runs n levels" 40 stats.Stats.level

let test_karp2_visits_twice_karp () =
  let g = Sprand.generate ~seed:4 ~n:30 ~m:90 () in
  let s1 = Stats.create () and s2 = Stats.create () in
  ignore (Karp.minimum_cycle_mean ~stats:s1 g);
  ignore (Karp2.minimum_cycle_mean ~stats:s2 g);
  (* pass 1 (n levels) + pass 2 (n-1 levels) ≈ 2× Karp's arc visits *)
  Alcotest.(check bool) "karp2 does roughly double the work" true
    (s2.Stats.arcs_visited > (3 * s1.Stats.arcs_visited) / 2
    && s2.Stats.arcs_visited <= 2 * s1.Stats.arcs_visited)

let test_dg_beats_karp_on_ring () =
  (* on a bare ring the DG frontier is a single node per level *)
  let g = Families.ring 50 in
  let sk = Stats.create () and sd = Stats.create () in
  ignore (Karp.minimum_cycle_mean ~stats:sk g);
  ignore (Dg.minimum_cycle_mean ~stats:sd g);
  Alcotest.(check bool)
    (Printf.sprintf "DG visits far fewer arcs (%d vs %d)"
       sd.Stats.arcs_visited sk.Stats.arcs_visited)
    true
    (sd.Stats.arcs_visited * 10 < sk.Stats.arcs_visited)

let test_yto_fewer_heap_ops_than_ko () =
  let g = Sprand.generate ~seed:9 ~n:128 ~m:512 () in
  let sk = Stats.create () and sy = Stats.create () in
  let lk, _ = Ko.minimum_cycle_mean ~stats:sk g in
  let ly, _ = Yto.minimum_cycle_mean ~stats:sy g in
  Helpers.check_ratio "same answer" lk ly;
  Alcotest.(check bool) "same pivots" true
    (sk.Stats.iterations = sy.Stats.iterations);
  Alcotest.(check bool)
    (Printf.sprintf "YTO uses fewer heap ops (%d vs %d)"
       (Heap_stats.total sy.Stats.heap)
       (Heap_stats.total sk.Stats.heap))
    true
    (Heap_stats.total sy.Stats.heap < Heap_stats.total sk.Stats.heap)

let test_howard_few_iterations () =
  let g = Sprand.generate ~seed:12 ~n:256 ~m:1024 () in
  let s = Stats.create () in
  ignore (Howard.minimum_cycle_mean ~stats:s g);
  Alcotest.(check bool)
    (Printf.sprintf "howard iterations (%d) well below n" s.Stats.iterations)
    true
    (s.Stats.iterations < 64)

let test_lawler_without_finisher_is_approximate () =
  let g = Families.two_cycles ~len1:3 ~w1:7 ~len2:2 ~w2:3 in
  let lambda, cycle = Lawler.minimum_cycle_mean ~exact_finish:false g in
  (* the candidate is a real cycle whose mean is within epsilon of 3 *)
  Alcotest.(check bool) "real cycle" true (Digraph.is_cycle g cycle);
  Alcotest.(check bool) "close to optimum" true
    (abs_float (Ratio.to_float lambda -. 3.0) < 0.5)

let test_lawler_epsilon_control () =
  let g = Sprand.generate ~seed:5 ~n:24 ~m:60 () in
  let coarse = Stats.create () and fine = Stats.create () in
  ignore (Lawler.minimum_cycle_mean ~stats:coarse ~epsilon:100.0 g);
  ignore (Lawler.minimum_cycle_mean ~stats:fine ~epsilon:0.001 g);
  Alcotest.(check bool) "finer epsilon, more oracle calls" true
    (fine.Stats.oracle_calls > coarse.Stats.oracle_calls)

let test_burns_iterations_bounded () =
  let g = Sprand.generate ~seed:6 ~n:100 ~m:250 () in
  let s = Stats.create () in
  ignore (Burns.minimum_cycle_mean ~stats:s g);
  Alcotest.(check bool)
    (Printf.sprintf "burns iterations (%d) below n" s.Stats.iterations)
    true
    (s.Stats.iterations <= 100)

(* -------------------- qcheck cross-validation ---------------------- *)

let qcheck_algorithm_vs_oracle (name, solve) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = oracle on random SC graphs (mean)" name)
    ~count:120
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let lambda, cycle = solve ?stats:None g in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      Ratio.equal lambda opt
      && Digraph.is_cycle g cycle
      && Ratio.equal (Critical.ratio_of_cycle g ~den:den1 cycle) opt)

let qcheck_algorithm_vs_oracle_ratio (name, solve) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = oracle on random SC graphs (ratio)" name)
    ~count:80
    (Helpers.arb_strongly_connected ~max_n:6 ~max_extra:8 ~tmax:3 ())
    (fun g ->
      let lambda, cycle = solve ?stats:None g in
      let opt = Helpers.oracle_ratio Oracle.Minimize g |> Option.get in
      Ratio.equal lambda opt
      && Ratio.equal
           (Critical.ratio_of_cycle g ~den:(Digraph.transit g) cycle)
           opt)

let qcheck_pairwise_agreement =
  QCheck.Test.make
    ~name:"all algorithms agree on larger SC graphs" ~count:25
    (Helpers.arb_strongly_connected ~max_n:40 ~max_extra:120 ~wlo:(-100)
       ~whi:100 ())
    (fun g ->
      let results = List.map (fun (_, solve) -> fst (solve ?stats:None g)) all_mean in
      match results with
      | [] -> true
      | first :: rest -> List.for_all (Ratio.equal first) rest)

let suite =
  fixture_cases @ ratio_fixture_cases @ no_arcs_cases
  @ [
      Alcotest.test_case "HO terminates early" `Quick test_ho_terminates_early;
      Alcotest.test_case "Karp runs all n levels" `Quick test_karp_level_is_n;
      Alcotest.test_case "Karp2 visits ~2x Karp arcs" `Quick
        test_karp2_visits_twice_karp;
      Alcotest.test_case "DG beats Karp on a bare ring" `Quick
        test_dg_beats_karp_on_ring;
      Alcotest.test_case "YTO needs fewer heap ops than KO" `Quick
        test_yto_fewer_heap_ops_than_ko;
      Alcotest.test_case "Howard converges in few iterations" `Quick
        test_howard_few_iterations;
      Alcotest.test_case "Lawler without finisher is approximate" `Quick
        test_lawler_without_finisher_is_approximate;
      Alcotest.test_case "Lawler epsilon controls oracle calls" `Quick
        test_lawler_epsilon_control;
      Alcotest.test_case "Burns iteration count bounded" `Quick
        test_burns_iterations_bounded;
    ]
  @ Helpers.qtests
      (List.map qcheck_algorithm_vs_oracle all_mean
      @ List.map qcheck_algorithm_vs_oracle_ratio all_ratio
      @ [ qcheck_pairwise_agreement ])

(* -------------------- variant / ablation coverage ------------------ *)

let test_heap_kinds_agree () =
  let g = Sprand.generate ~seed:21 ~n:100 ~m:300 () in
  let reference, _ = Yto.minimum_cycle_mean g in
  List.iter
    (fun heap ->
      List.iter
        (fun variant ->
          let lambda, cycle =
            Parametric.minimum_cycle_mean ~heap ~variant g
          in
          Helpers.check_ratio "same optimum across heaps" reference lambda;
          Alcotest.(check bool) "valid witness" true (Digraph.is_cycle g cycle))
        [ `Ko; `Yto ])
    [ `Fibonacci; `Binary; `Pairing ]

let test_parametric_native_ratio () =
  let g = Sprand.generate ~seed:22 ~n:40 ~m:120 ~transits:(1, 4) () in
  let l_ko, c_ko = Ko.minimum_cycle_ratio g in
  let l_yto, _ = Yto.minimum_cycle_ratio g in
  let l_howard, _ = Howard.minimum_cycle_ratio g in
  Helpers.check_ratio "KO ratio = Howard ratio" l_howard l_ko;
  Helpers.check_ratio "YTO ratio = Howard ratio" l_howard l_yto;
  Helpers.check_ratio "KO witness attains the ratio" l_ko
    (Critical.ratio_of_cycle g ~den:(Digraph.transit g) c_ko)

let test_parametric_ratio_with_zero_transit_arcs () =
  (* zero-transit arcs are fine as long as no cycle has zero total *)
  let g = Digraph.of_arcs 3 [ (0, 1, 4, 0); (1, 2, 3, 2); (2, 0, 5, 1) ] in
  let lambda, _ = Yto.minimum_cycle_ratio g in
  Helpers.check_ratio "ratio 12/3" (Helpers.r 4 1) lambda

let test_lawler_improved_agrees_and_saves () =
  let g = Sprand.generate ~seed:23 ~n:64 ~m:160 () in
  let s_plain = Stats.create () and s_improved = Stats.create () in
  let l1, _ = Lawler.minimum_cycle_mean ~stats:s_plain g in
  let l2, _ = Lawler.minimum_cycle_mean ~stats:s_improved ~improved:true g in
  Helpers.check_ratio "same optimum" l1 l2;
  Alcotest.(check bool)
    (Printf.sprintf "improved needs <= oracle calls (%d vs %d)"
       s_improved.Stats.oracle_calls s_plain.Stats.oracle_calls)
    true
    (s_improved.Stats.oracle_calls <= s_plain.Stats.oracle_calls)

let test_howard_inits_agree () =
  let g = Sprand.generate ~seed:24 ~n:80 ~m:240 () in
  let reference, _ = Howard.minimum_cycle_mean g in
  List.iter
    (fun init ->
      let lambda, _ = Howard.minimum_cycle_mean ~init g in
      Helpers.check_ratio "same optimum across inits" reference lambda)
    [ `Cheapest_arc; `First_arc; `Random 1; `Random 99 ]

let test_long_critical_family () =
  let n = 24 in
  let g = Families.long_critical n in
  let stats = Stats.create () in
  let lambda, cycle = Ho.minimum_cycle_mean ~stats g in
  Helpers.check_ratio "ring mean 1" (Helpers.r 1 1) lambda;
  Alcotest.(check int) "critical cycle spans the whole ring" n
    (List.length cycle);
  Alcotest.(check int) "HO cannot exit early here" n stats.Stats.level

let qcheck_heap_kinds_ratio =
  QCheck.Test.make ~name:"parametric: all heaps agree on the ratio problem"
    ~count:60
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:9 ~tmax:3 ())
    (fun g ->
      let expected = Helpers.oracle_ratio Oracle.Minimize g |> Option.get in
      List.for_all
        (fun heap ->
          let l, _ = Parametric.minimum_cycle_ratio ~heap ~variant:`Yto g in
          Ratio.equal l expected)
        [ `Fibonacci; `Binary; `Pairing ])

let qcheck_lawler_improved_vs_oracle =
  QCheck.Test.make ~name:"Lawler improved = oracle" ~count:80
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let l, _ = Lawler.minimum_cycle_mean ~improved:true g in
      Ratio.equal l (Helpers.oracle_mean Oracle.Minimize g |> Option.get))

let qcheck_howard_random_init_vs_oracle =
  QCheck.Test.make ~name:"Howard random init = oracle" ~count:80
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let l, _ = Howard.minimum_cycle_mean ~init:(`Random 5) g in
      Ratio.equal l (Helpers.oracle_mean Oracle.Minimize g |> Option.get))

let suite =
  suite
  @ [
      Alcotest.test_case "heap kinds agree (KO/YTO)" `Quick
        test_heap_kinds_agree;
      Alcotest.test_case "KO/YTO solve the ratio natively" `Quick
        test_parametric_native_ratio;
      Alcotest.test_case "parametric ratio with zero-transit arcs" `Quick
        test_parametric_ratio_with_zero_transit_arcs;
      Alcotest.test_case "Lawler improved agrees and saves oracles" `Quick
        test_lawler_improved_agrees_and_saves;
      Alcotest.test_case "Howard inits agree" `Quick test_howard_inits_agree;
      Alcotest.test_case "long_critical adversarial family" `Quick
        test_long_critical_family;
    ]
  @ Helpers.qtests
      [
        qcheck_heap_kinds_ratio;
        qcheck_lawler_improved_vs_oracle;
        qcheck_howard_random_init_vs_oracle;
      ]

let test_dg_low_space_agrees () =
  let g = Sprand.generate ~seed:31 ~n:60 ~m:150 () in
  let s_full = Stats.create () and s_low = Stats.create () in
  let l1, _ = Dg.minimum_cycle_mean ~stats:s_full g in
  let l2, c2 = Dg.minimum_cycle_mean_low_space ~stats:s_low g in
  Helpers.check_ratio "same optimum" l1 l2;
  Alcotest.(check bool) "valid witness" true (Digraph.is_cycle g c2);
  Alcotest.(check bool)
    (Printf.sprintf "low-space does ~2x the arc visits (%d vs %d)"
       s_low.Stats.arcs_visited s_full.Stats.arcs_visited)
    true
    (s_low.Stats.arcs_visited > (3 * s_full.Stats.arcs_visited) / 2)

let qcheck_dg_low_space_vs_oracle =
  QCheck.Test.make ~name:"DG low-space = oracle" ~count:80
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let l, _ = Dg.minimum_cycle_mean_low_space g in
      Ratio.equal l (Helpers.oracle_mean Oracle.Minimize g |> Option.get))

let suite =
  suite
  @ [ Alcotest.test_case "DG low-space variant" `Quick test_dg_low_space_agrees ]
  @ Helpers.qtests [ qcheck_dg_low_space_vs_oracle ]

(* every native ratio solver must reject zero-transit cycles up front
   rather than looping or crashing *)
let zero_transit_rejection_cases =
  let g = Digraph.of_arcs 2 [ (0, 1, -3, 0); (1, 0, 1, 0); (0, 0, 5, 2) ] in
  List.filter_map
    (fun alg ->
      if Registry.native_ratio alg then
        Some
          (Alcotest.test_case
             (Registry.display_name alg ^ " (ratio) rejects zero-transit cycle")
             `Quick
             (fun () ->
               match Registry.minimum_cycle_ratio alg g with
               | exception Invalid_argument _ -> ()
               | _ -> Alcotest.fail "expected Invalid_argument"))
      else None)
    Registry.all

let suite = suite @ zero_transit_rejection_cases

(* integration: every algorithm agrees on a spread of realistic
   workloads (circuit stand-ins, torus, layered dataflow) *)
let integration_workloads =
  [
    ("circuit s641", Circuit.benchmark "s641");
    ("circuit s1423", Circuit.benchmark "s1423");
    ("grid torus 8x8", Families.grid_torus ~seed:3 8 8);
    ("layered dataflow", Families.layered_dataflow ~seed:4 ~layers:6 ~width:5 ());
    ("long critical 40", Families.long_critical 40);
  ]

let integration_cases =
  List.map
    (fun (name, g) ->
      Alcotest.test_case ("all algorithms agree on " ^ name) `Slow (fun () ->
          let results =
            List.map
              (fun alg ->
                let lambda, cycle = Registry.minimum_cycle_mean alg g in
                (match Verify.certify g lambda cycle with
                | Ok () -> ()
                | Error e ->
                  Alcotest.failf "%s certificate: %s"
                    (Registry.display_name alg) e);
                lambda)
              Registry.all
          in
          match results with
          | first :: rest ->
            List.iteri
              (fun i l ->
                Helpers.check_ratio
                  (Printf.sprintf "algorithm %d agrees" (i + 1))
                  first l)
              rest
          | [] -> ()))
    integration_workloads

let suite = suite @ integration_cases

(* -------------------- incremental re-solving ----------------------- *)

(* A Dyn session on a strongly connected graph: one component, so
   every re-query is one incremental re-solve of the whole graph. *)
let session_report s =
  match Dyn.query s with
  | Some r -> r
  | None -> Alcotest.fail "expected a cyclic graph"

let test_incremental_matches_cold () =
  let g = Sprand.generate ~seed:41 ~n:60 ~m:180 () in
  let s = Dyn.create g in
  let rng = Rng.create 5 in
  for _ = 1 to 25 do
    (* perturb one random arc, then compare against a cold solve *)
    let a = Rng.int rng (Digraph.m g) in
    Dyn.set_weight s a (Rng.in_range rng 1 10000);
    let r = session_report s in
    let cur = Dyn.graph s in
    let l_cold, c_cold = Howard.minimum_cycle_mean cur in
    Helpers.check_ratio "incremental = cold" l_cold r.Dyn.lambda;
    Alcotest.(check (list int)) "same witness" c_cold
      (List.map (Dyn.to_graph_arc s) r.Dyn.cycle)
  done

let test_incremental_warm_start_saves_iterations () =
  let g = Sprand.generate ~seed:42 ~n:256 ~m:768 () in
  let s = Dyn.create g in
  let r0 = session_report s in
  let first = r0.Dyn.stats in
  (* a tiny perturbation off the critical cycle: the old optimum still
     holds, so the re-query confirms it with one location pass *)
  let a =
    List.find
      (fun a -> not (List.mem a r0.Dyn.cycle))
      (List.init (Digraph.m g) Fun.id)
  in
  Dyn.set_weight s a (Digraph.weight g a + 1);
  let again = (session_report s).Dyn.stats in
  Alcotest.(check bool)
    (Printf.sprintf "re-query probes no more than the first (%d vs %d)"
       again.Stats.oracle_calls first.Stats.oracle_calls)
    true
    (again.Stats.oracle_calls <= first.Stats.oracle_calls)

let test_incremental_validation () =
  let s = Dyn.create (Families.ring 4) in
  Alcotest.(check bool) "bad arc id" true
    (match Dyn.set_weight s 99 1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "arcless session answers acyclic" true
    (Dyn.query (Dyn.create (Digraph.of_arcs 1 [])) = None)

let qcheck_incremental_random_updates =
  QCheck.Test.make ~name:"incremental: random update sequences = oracle"
    ~count:60
    (QCheck.pair
       (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
       QCheck.(list (pair (int_range 0 1000) (int_range (-20) 20))))
    (fun (g, updates) ->
      let s = Dyn.create g in
      List.for_all
        (fun (raw_arc, w) ->
          Dyn.set_weight s (raw_arc mod Digraph.m g) w;
          let opt =
            Helpers.oracle_mean Oracle.Minimize (Dyn.graph s) |> Option.get
          in
          Ratio.equal (session_report s).Dyn.lambda opt)
        updates)

let suite =
  suite
  @ [
      Alcotest.test_case "incremental matches cold solves" `Quick
        test_incremental_matches_cold;
      Alcotest.test_case "incremental warm start saves work" `Quick
        test_incremental_warm_start_saves_iterations;
      Alcotest.test_case "incremental validation" `Quick
        test_incremental_validation;
    ]
  @ Helpers.qtests [ qcheck_incremental_random_updates ]

(* the "approximate" classification of Table 1 is quantitative: without
   the exact finisher, Lawler and OA1 return the ratio of a genuine
   cycle within epsilon of the optimum *)
let qcheck_lawler_epsilon_bound =
  QCheck.Test.make ~name:"Lawler (approximate): 0 <= error <= epsilon"
    ~count:100
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let epsilon = 0.75 in
      let lambda, cycle = Lawler.minimum_cycle_mean ~epsilon ~exact_finish:false g in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let err = Ratio.to_float lambda -. Ratio.to_float opt in
      Digraph.is_cycle g cycle && err >= -1e-9 && err <= epsilon +. 1e-9)

let qcheck_oa1_epsilon_bound =
  QCheck.Test.make ~name:"OA1 (approximate): 0 <= error <= epsilon" ~count:100
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:12 ())
    (fun g ->
      let epsilon = 0.75 in
      let lambda, cycle = Oa.oa1_minimum_cycle_mean ~epsilon g in
      let opt = Helpers.oracle_mean Oracle.Minimize g |> Option.get in
      let err = Ratio.to_float lambda -. Ratio.to_float opt in
      Digraph.is_cycle g cycle && err >= -1e-9 && err <= epsilon +. 1e-9)

let suite =
  suite @ Helpers.qtests [ qcheck_lawler_epsilon_bound; qcheck_oa1_epsilon_bound ]
