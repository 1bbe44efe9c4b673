(* Engine tests: fingerprint quality, LRU behavior, the budget /
   deadline machinery, Stats merging, and the headline property — the
   engine's results (including cache hits) are identical to a fresh
   [Solver.solve], at --jobs 1 and --jobs 4 alike. *)

let ring ?(w = 1) n =
  Digraph.of_arcs n (List.init n (fun i -> (i, (i + 1) mod n, w, 1)))

(* ------------------------------------------------------------------ *)
(* fingerprint                                                         *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_distinct () =
  (* a few hundred structurally different graphs must all hash apart *)
  let seen = Hashtbl.create 1024 in
  let remember g =
    let hex = Fingerprint.to_hex (Fingerprint.of_graph g) in
    if Hashtbl.mem seen hex then
      Alcotest.failf "fingerprint collision on %s" hex;
    Hashtbl.replace seen hex ()
  in
  for seed = 1 to 300 do
    let n = 4 + (seed mod 23) in
    let m = n + (seed mod 37) in
    remember (Sprand.generate ~seed ~n ~m ())
  done;
  for n = 1 to 50 do
    remember (ring n)
  done;
  Alcotest.(check int) "all distinct" 350 (Hashtbl.length seen)

(* Every one-field edit of every arc, and a weight + transit edit,
   changes the fingerprint; subtracting the arc's old term from the
   running sum and adding its new one gives the edited graph's
   fingerprint. *)
let test_fingerprint_sensitivity () =
  let g = Sprand.generate ~seed:9 ~n:40 ~m:120 ~transits:(1, 4) () in
  let n = Digraph.n g and m = Digraph.m g in
  let fields a =
    (Digraph.src g a, Digraph.dst g a, Digraph.weight g a, Digraph.transit g a)
  in
  let fp = Fingerprint.of_graph in
  let sum = Fingerprint.zero () in
  let term f a (src, dst, weight, transit) =
    f sum ~arc:a ~src ~dst ~weight ~transit
  in
  for a = 0 to m - 1 do
    term Fingerprint.add a (fields a)
  done;
  let base = fp g in
  Alcotest.(check bool) "finish = of_graph" true
    (Fingerprint.equal base (Fingerprint.finish sum ~n ~m));
  for a = 0 to m - 1 do
    let ((s, d, w, t) as old) = fields a in
    List.iter
      (fun (what, edited) ->
        let g' =
          Digraph.of_arcs n
            (List.init m (fun b -> if b = a then edited else fields b))
        in
        if Fingerprint.equal base (fp g') then
          Alcotest.failf "arc %d: %s edit keeps the fingerprint" a what;
        term Fingerprint.sub a old;
        term Fingerprint.add a edited;
        if not (Fingerprint.equal (fp g') (Fingerprint.finish sum ~n ~m)) then
          Alcotest.failf "arc %d: %s edit: sub/add differs from of_graph" a
            what;
        term Fingerprint.sub a edited;
        term Fingerprint.add a old)
      [
        ("src", ((s + 1) mod n, d, w, t));
        ("dst", (s, (d + 1) mod n, w, t));
        ("weight", (s, d, w + 1, t));
        ("transit", (s, d, w, t + 1));
        ("weight+transit", (s, d, w - 3, t + 2));
      ]
  done;
  (* arc ids are part of the structure (witness cycles name them), so
     a permuted arc list is a different identity... *)
  let arcs = List.init 5 (fun i -> (i, (i + 1) mod 5, 1, 1)) in
  let ring5 = Digraph.of_arcs 5 arcs in
  let permuted = Digraph.of_arcs 5 (List.rev arcs) in
  Alcotest.(check bool) "permuted arc list differs" false
    (Fingerprint.equal (fp ring5) (fp permuted));
  (* ...while rebuilding the same graph reproduces the fingerprint *)
  let same = Digraph.of_arcs 5 arcs in
  Alcotest.(check bool) "same construction equal" true
    (Fingerprint.equal (fp ring5) (fp same));
  Alcotest.(check int) "hash consistent" (Fingerprint.hash (fp ring5))
    (Fingerprint.hash (fp same))

(* of_graph keeps its lanes unboxed: the only allocation is the
   result (a record of two boxed int64s, 9 words). *)
let test_fingerprint_allocation () =
  let g = Sprand.generate ~seed:2 ~n:4096 ~m:12288 () in
  ignore (Fingerprint.of_graph g);
  let before = Gc.minor_words () in
  ignore (Fingerprint.of_graph g);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "of_graph on m = 12288 allocates %.0f words (<= 16)" words)
    true (words <= 16.0)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_promotion () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  (* touching 1 promotes it, so adding 3 evicts 2 *)
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find c 1);
  Lru.add c 3 "c";
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find c 1);
  Alcotest.(check (option string)) "3 present" (Some "c") (Lru.find c 3);
  Alcotest.(check int) "length" 2 (Lru.length c);
  (* refresh of an existing key must not evict *)
  Lru.add c 1 "a'";
  Alcotest.(check (option string)) "refreshed" (Some "a'") (Lru.find c 1);
  Alcotest.(check int) "length stable" 2 (Lru.length c)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c 1 "a";
  Alcotest.(check (option string)) "disabled cache stores nothing" None
    (Lru.find c 1);
  Alcotest.(check int) "empty" 0 (Lru.length c)

(* ------------------------------------------------------------------ *)
(* budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_iterations () =
  let b = Budget.create ~max_iterations:3 () in
  Budget.tick b;
  Budget.tick b;
  Budget.tick b;
  Alcotest.check_raises "4th tick" (Budget.Exceeded Budget.Iterations)
    (fun () -> Budget.tick b)

let test_budget_deadline () =
  let time = ref 0.0 in
  let b =
    Budget.create ~now:(fun () -> !time) ~deadline_at:5.0 ()
  in
  Budget.check b;
  Budget.tick b;
  time := 10.0;
  Alcotest.check_raises "past deadline" (Budget.Exceeded Budget.Deadline)
    (fun () -> Budget.check b);
  Alcotest.check_raises "tick sees the clock too"
    (Budget.Exceeded Budget.Deadline) (fun () -> Budget.tick b)

(* Two disjoint rings with different cycle means: sweeping the
   iteration allowance must pass through all three regimes — nothing
   solved, a partial bound over the completed component, and the full
   optimum. *)
let test_solver_deadline_partial () =
  let g =
    Digraph.of_arcs 6
      (List.init 3 (fun i -> (i, (i + 1) mod 3, 1, 1))
      @ List.init 3 (fun i -> (i + 3, 3 + ((i + 1) mod 3), 2, 1)))
  in
  let solve_with k =
    let budget = Budget.create ~max_iterations:k () in
    match Solver.solve ~algorithm:Registry.Howard ~budget g with
    | exception Solver.Deadline_exceeded { partial } -> `Cut partial
    | Some r -> `Done r
    | None -> Alcotest.fail "unexpectedly acyclic"
  in
  let saw_none = ref false and saw_partial = ref false and done_ = ref None in
  for k = 0 to 50 do
    if !done_ = None then
      match solve_with k with
      | `Cut None -> saw_none := true
      | `Cut (Some r) ->
        saw_partial := true;
        (* a partial minimum over completed components is an upper
           bound on the true optimum *)
        Alcotest.(check bool) "upper bound" true
          (Ratio.leq (Ratio.make 1 1) r.Solver.lambda)
      | `Done r -> done_ := Some r
  done;
  Alcotest.(check bool) "tiny budgets cut before any component" true !saw_none;
  Alcotest.(check bool) "some budget yields a partial bound" true !saw_partial;
  match !done_ with
  | None -> Alcotest.fail "never completed within 50 iterations"
  | Some r ->
    Helpers.check_ratio "full optimum" (Ratio.make 1 1) r.Solver.lambda;
    Alcotest.(check int) "both components" 2 r.Solver.components

let test_stats_merge () =
  let s1 = Stats.create () and s2 = Stats.create () in
  s1.Stats.iterations <- 3;
  s1.Stats.relaxations <- 5;
  s1.Stats.heap.Heap_stats.inserts <- 7;
  s2.Stats.iterations <- 4;
  s2.Stats.arcs_visited <- 11;
  s2.Stats.heap.Heap_stats.inserts <- 2;
  let m = Stats.merge s1 s2 in
  Alcotest.(check int) "iterations" 7 m.Stats.iterations;
  Alcotest.(check int) "relaxations" 5 m.Stats.relaxations;
  Alcotest.(check int) "arcs_visited" 11 m.Stats.arcs_visited;
  Alcotest.(check int) "heap inserts" 9 m.Stats.heap.Heap_stats.inserts;
  (* inputs untouched *)
  Alcotest.(check int) "s1 intact" 3 s1.Stats.iterations;
  Alcotest.(check int) "s2 intact" 4 s2.Stats.iterations

(* ------------------------------------------------------------------ *)
(* engine vs solver                                                    *)
(* ------------------------------------------------------------------ *)

let with_engine ~jobs ?(cache_size = 16) f =
  let eng = Engine.create ~jobs ~cache_size () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () -> f eng)

let spec_of ~problem ~objective ~algorithm ~verify =
  {
    (Request.default_spec "mem") with
    Request.problem;
    objective;
    algorithm;
    verify;
  }

(* The headline property: for any graph, a batch containing the same
   request twice returns (1) a fresh result identical to Solver.solve —
   lambda, witness cycle, component count — and (2) a cached duplicate
   carrying the very same answer, certified against the request's
   graph. *)
let qcheck_engine_matches_solver
    ?(name = Printf.sprintf "engine --jobs %d = Solver.solve (incl. cache hits)")
    ?(graphs = Helpers.arb_any_graph ~max_n:8 ~max_m:16 ~tmax:3 ())
    ?(algorithm = Request.Fixed Registry.Howard) jobs =
  QCheck.Test.make ~count:60
    ~name:(name jobs)
    QCheck.(pair graphs (pair bool bool))
    (fun (g, (maximize, ratio)) ->
      let objective = if maximize then Solver.Maximize else Solver.Minimize in
      let problem = if ratio then Solver.Cycle_ratio else Solver.Cycle_mean in
      let spec = spec_of ~problem ~objective ~algorithm ~verify:true in
      with_engine ~jobs (fun eng ->
          let reqs =
            [ Request.make ~id:1 ~graph:g spec;
              Request.make ~id:2 ~graph:g spec ]
          in
          let expect =
            Solver.solve ~objective ~problem ~algorithm:Registry.Howard g
          in
          match (Engine.run_batch eng reqs, expect) with
          | [ { Engine.outcome = Engine.Acyclic; _ };
              { Engine.outcome = Engine.Acyclic; _ } ], None ->
            true
          | [ { Engine.outcome = Engine.Solved s1; _ };
              { Engine.outcome = Engine.Solved s2; _ } ], Some r ->
            Ratio.equal s1.lambda r.Solver.lambda
            && s1.cycle = r.Solver.cycle
            && s1.components = r.Solver.components
            && (not s1.cached) && s1.certified
            && s2.cached && s2.certified
            && Ratio.equal s2.lambda s1.lambda
            && s2.cycle = s1.cycle
          | _ -> false))

(* Response lines — the entire observable batch output — are
   byte-identical across --jobs settings, with the Auto portfolio. *)
let qcheck_jobs_byte_identical =
  QCheck.Test.make ~count:40 ~name:"batch output identical at --jobs 1 and 4"
    (Helpers.arb_any_graph ~max_n:10 ~max_m:24 ~tmax:2 ())
    (fun g ->
      let spec =
        spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
          ~algorithm:Request.Auto ~verify:false
      in
      let reqs =
        [ Request.make ~id:1 ~graph:g spec;
          Request.make ~id:2 ~graph:g spec;
          Request.make ~id:3 ~graph:g spec ]
      in
      let lines jobs =
        with_engine ~jobs (fun eng ->
            List.map
              (fun r -> Engine.response_line r)
              (Engine.run_batch eng reqs))
      in
      lines 1 = lines 4)

let test_serve_path_counters () =
  with_engine ~jobs:1 (fun eng ->
      let g = ring 7 in
      let spec =
        spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
          ~algorithm:Request.Auto ~verify:true
      in
      let r1 = Engine.solve eng (Request.make ~id:1 ~graph:g spec) in
      let r2 = Engine.solve eng (Request.make ~id:2 ~graph:g spec) in
      (match (r1.Engine.outcome, r2.Engine.outcome) with
      | Engine.Solved s1, Engine.Solved s2 ->
        Alcotest.(check bool) "fresh then cached" true
          ((not s1.cached) && s2.cached);
        Alcotest.(check bool) "hit re-certified" true s2.certified
      | _ -> Alcotest.fail "expected two solved responses");
      let v = Telemetry.value (Engine.telemetry eng) in
      Alcotest.(check int) "requests" 2 (v Telemetry.requests);
      Alcotest.(check int) "hits" 1 (v Telemetry.cache_hits);
      Alcotest.(check int) "misses" 1 (v Telemetry.cache_misses);
      Alcotest.(check int) "collisions" 0 (v Telemetry.collisions))

let test_deadline_zero_times_out () =
  with_engine ~jobs:1 (fun eng ->
      let g = ring 9 in
      let spec =
        { (spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
             ~algorithm:Request.Auto ~verify:false)
          with Request.deadline_ms = Some 0.0 }
      in
      match (Engine.solve eng (Request.make ~id:1 ~graph:g spec)).Engine.outcome with
      | Engine.Timeout { attempted; _ } ->
        Alcotest.(check bool) "tried at least one algorithm" true
          (attempted <> [])
      | _ -> Alcotest.fail "expected a timeout")

(* A component Newton's descent answers in 3 probes.  Cut to 1 probe,
   Newton blows out and Howard answers: one fallback, one Newton
   blowout in the exposition, and the same λ and witness as the
   uncut portfolio. *)
let test_newton_blowout_falls_through () =
  let g = Sprand.generate ~seed:1 ~n:64 ~m:192 () in
  let stats = Stats.create () in
  ignore (Newton.minimum_cycle_mean ~stats g);
  Alcotest.(check bool)
    (Printf.sprintf "Newton needs %d >= 2 probes" stats.Stats.iterations)
    true (stats.Stats.iterations >= 2);
  let spec =
    spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
      ~algorithm:Request.Auto ~verify:false
  in
  let req = Request.make ~id:1 ~graph:g spec in
  let answer eng attempts =
    match Engine.solve_attempts eng attempts req with
    | Engine.Solved s -> (s.algorithm, s.fallbacks, s.lambda, s.cycle)
    | _ -> Alcotest.fail "expected a solved outcome"
  in
  with_engine ~jobs:1 (fun eng ->
      let alg, fallbacks, _, _ = answer eng (Engine.portfolio req) in
      Alcotest.(check string) "uncut: Newton answers" "newton" alg;
      Alcotest.(check int) "uncut: no fallback" 0 fallbacks);
  with_engine ~jobs:1 (fun eng ->
      let cut =
        match Engine.portfolio req with
        | newton :: rest -> { newton with Engine.iterations = Some 1 } :: rest
        | [] -> Alcotest.fail "empty portfolio"
      in
      let alg, fallbacks, lambda, cycle = answer eng cut in
      let expect = Option.get (Solver.solve ~algorithm:Registry.Howard g) in
      Alcotest.(check string) "Howard answers" "howard" alg;
      Alcotest.(check int) "one fallback" 1 fallbacks;
      Helpers.check_ratio "same lambda" expect.Solver.lambda lambda;
      Alcotest.(check (list int)) "same witness" expect.Solver.cycle cycle;
      let expo = Metrics.to_prometheus (Engine.metrics_snapshot eng) in
      Alcotest.(check bool) "ocr_alg_newton_blowouts_total 1" true
        (List.mem "ocr_alg_newton_blowouts_total 1"
           (String.split_on_char '\n' expo)))

(* A verify=true hit checks the potentials that the entry's first
   verify hit stored from its full probe: a verify miss then three
   verify hits on one file are one probe and two potential checks, with
   the replies of an engine that re-probes every hit.  The miss stores
   nothing, whether it was verified or not. *)
let test_verify_hits_check_potentials () =
  let path = Filename.temp_file "ocr_engine" ".ocr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Graph_io.to_string (Sprand.generate ~seed:3 ~n:64 ~m:192 ())));
      let spec ~verify =
        spec_of ~problem:Solver.Cycle_ratio ~objective:Solver.Maximize
          ~algorithm:Request.Auto ~verify
        |> fun s -> { s with Request.path }
      in
      let serve verifies =
        with_engine ~jobs:1 (fun eng ->
            let lines =
              List.mapi
                (fun i verify ->
                  match Engine.solve_path eng ~id:(i + 1) (spec ~verify) with
                  | Ok r -> Engine.response_line r
                  | Error e -> Alcotest.fail e)
                verifies
            in
            let v = Telemetry.value (Engine.telemetry eng) in
            ( lines,
              (v Telemetry.verify_hit_potentials, v Telemetry.verify_hit_probes),
              v Telemetry.collisions ))
      in
      let lines, counts, collisions = serve [ true; true; true; true ] in
      Alcotest.(check (pair int int)) "2 checks, 1 probe" (2, 1) counts;
      Alcotest.(check int) "no collision" 0 collisions;
      let expect =
        Option.get
          (Solver.solve ~objective:Solver.Maximize ~problem:Solver.Cycle_ratio
             ~algorithm:Registry.Howard (Graph_io.load path))
      in
      List.iteri
        (fun i l ->
          Alcotest.(check string)
            (Printf.sprintf "reply %d" (i + 1))
            (Printf.sprintf
               "req=%d file=%s status=ok lambda=%s float=%.6f alg=newton \
                components=%d fallbacks=0 cached=%b certificate=ok"
               (i + 1) path
               (Ratio.to_string expect.Solver.lambda)
               (Ratio.to_float expect.Solver.lambda)
               expect.Solver.components (i > 0))
            l)
        lines;
      let _, counts, _ = serve [ false; true; true ] in
      Alcotest.(check (pair int int)) "unverified miss: probe, then check"
        (1, 1) counts)

(* Potentials past int32 are not stored: every verify hit on such an
   entry runs the full probe. *)
let test_wide_potentials_not_stored () =
  let w = 1 lsl 32 in
  let g = Digraph.of_arcs 2 [ (0, 1, -w, 1); (1, 0, w, 1) ] in
  let spec =
    spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
      ~algorithm:Request.Auto ~verify:true
  in
  with_engine ~jobs:1 (fun eng ->
      for id = 1 to 3 do
        match (Engine.solve eng (Request.make ~id ~graph:g spec)).Engine.outcome with
        | Engine.Solved s ->
          Alcotest.(check bool) "certified" true s.certified;
          Helpers.check_ratio "lambda" Ratio.zero s.lambda
        | _ -> Alcotest.fail "expected a solved outcome"
      done;
      let v = Telemetry.value (Engine.telemetry eng) in
      Alcotest.(check (pair int int)) "0 checks, 2 probes" (0, 2)
        (v Telemetry.verify_hit_potentials, v Telemetry.verify_hit_probes))

let suite =
  [
    Alcotest.test_case "fingerprint: 350 graphs, no collision" `Quick
      test_fingerprint_distinct;
    Alcotest.test_case "fingerprint: sensitive to every field" `Quick
      test_fingerprint_sensitivity;
    Alcotest.test_case "lru: eviction + promotion" `Quick
      test_lru_eviction_promotion;
    Alcotest.test_case "lru: capacity 0 disables" `Quick test_lru_disabled;
    Alcotest.test_case "budget: iteration allowance" `Quick
      test_budget_iterations;
    Alcotest.test_case "budget: deadline clock" `Quick test_budget_deadline;
    Alcotest.test_case "solver: deadline partial results" `Quick
      test_solver_deadline_partial;
    Alcotest.test_case "stats: merge" `Quick test_stats_merge;
    Alcotest.test_case "engine: serve-path cache counters" `Quick
      test_serve_path_counters;
    Alcotest.test_case "engine: deadline 0 times out" `Quick
      test_deadline_zero_times_out;
  ]
  @ Helpers.qtests
      [
        qcheck_engine_matches_solver 1;
        qcheck_engine_matches_solver 4;
        qcheck_jobs_byte_identical;
      ]
  (* every generator family, many-SCC and giant-SCC included, so the
     engine's component fan-out faces Solver.solve at each job count
     (8 under OCR_TEST_JOBS=8) *)
  @ Helpers.qtests
      (List.map
         (qcheck_engine_matches_solver
            ~name:
              (Printf.sprintf
                 "engine --jobs %d = Solver.solve on every family")
            ~graphs:(Helpers.arb_family ()))
         (List.sort_uniq compare [ 1; 4; Helpers.default_jobs ]))
  @ [
      Alcotest.test_case "fingerprint: of_graph allocates only its result"
        `Quick test_fingerprint_allocation;
    ]
  @ [
      Alcotest.test_case "engine: a Newton blowout falls through to Howard"
        `Quick test_newton_blowout_falls_through;
    ]
  (* the Auto portfolio (Newton first) answers exactly what Howard
     answers: λ, witness and component count, on every family *)
  @ Helpers.qtests
      (List.map
         (qcheck_engine_matches_solver ~algorithm:Request.Auto
            ~name:
              (Printf.sprintf
                 "engine auto --jobs %d = Solver.solve Howard on every family")
            ~graphs:(Helpers.arb_family ()))
         (List.sort_uniq compare [ 1; 4; Helpers.default_jobs ]))
  @ [
      Alcotest.test_case "engine: verify hits check stored potentials" `Quick
        test_verify_hits_check_potentials;
      Alcotest.test_case "engine: potentials past int32 are not stored" `Quick
        test_wide_potentials_not_stored;
    ]
