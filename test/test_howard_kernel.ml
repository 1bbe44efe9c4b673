(* The zero-allocation claims of the Howard kernel rewrite, checked
   directly with Gc counters, plus scratch-reuse correctness. *)

(* Two budget-capped runs of the same solve share an identical
   trajectory prefix, so the difference of their minor-heap usage is
   exactly (k2 - k1) times the steady-state per-iteration allocation —
   the per-solve constants (closures, the final exception) cancel. *)
let test_steady_state_allocation () =
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let scratch = Howard.create_scratch () in
  let stats = Stats.create () in
  ignore (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch g);
  let total = stats.Stats.iterations in
  Alcotest.(check bool)
    (Printf.sprintf "enough iterations to measure (%d)" total)
    true (total >= 6);
  let run k =
    match
      Howard.minimum_cycle_mean ~init:`First_arc
        ~budget:(Budget.create ~max_iterations:k ())
        ~scratch g
    with
    | exception Budget.Exceeded _ -> ()
    | _ -> Alcotest.fail "the capped run should stop early"
  in
  let words k =
    run k;
    (* second run measures with the scratch warm *)
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  let k1 = 2 and k2 = total - 1 in
  let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state iteration allocates %.1f words (< 64)"
       per_iter)
    true (per_iter < 64.0)

(* One scratch across solves of different sizes: it grows monotonically
   and larger-than-n leftovers from earlier solves must not leak into
   later answers. *)
let test_scratch_reuse () =
  let scratch = Howard.create_scratch () in
  let check name g =
    let fresh_l, fresh_c = Howard.minimum_cycle_mean g in
    let l, c = Howard.minimum_cycle_mean ~scratch g in
    Helpers.check_ratio (name ^ ": lambda") fresh_l l;
    Alcotest.(check (list int)) (name ^ ": cycle") fresh_c c
  in
  check "large first" (Sprand.generate ~seed:11 ~n:300 ~m:900 ());
  check "then a tiny ring" (Families.ring 5);
  check "mid-size" (Sprand.generate ~seed:12 ~n:100 ~m:400 ())

(* A run stopped by its budget leaves the scratch mid-trajectory:
   distances, policy and winner stamps of an unfinished iteration.  The
   next solve on that scratch must answer like a fresh one. *)
let test_scratch_after_blown_budget () =
  let g = Sprand.generate ~seed:13 ~n:200 ~m:600 () in
  let fresh_st = Stats.create () in
  let fresh_l, fresh_c = Howard.minimum_cycle_mean ~stats:fresh_st g in
  let scratch = Howard.create_scratch () in
  (match
     Howard.minimum_cycle_mean ~init:`First_arc
       ~budget:(Budget.create ~max_iterations:1 ()) ~scratch g
   with
  | exception Budget.Exceeded _ -> ()
  | _ -> Alcotest.fail "the capped run should stop early");
  let st = Stats.create () in
  let l, c = Howard.minimum_cycle_mean ~stats:st ~scratch g in
  Helpers.check_ratio "lambda" fresh_l l;
  Alcotest.(check (list int)) "cycle" fresh_c c;
  Alcotest.(check bool) "stats bit-equal" true (fresh_st = st)

(* ------------------------------------------------------------------ *)
(* Chunked improvement sweep: bit-identical to the serial kernel       *)
(* ------------------------------------------------------------------ *)

(* The kernel trajectory, not just the answer: λ, witness and every
   operation counter must match the serial run for any pool size.
   Tie-heavy families are the interesting inputs — with all weights
   equal every arc into a node proposes the same candidate, so any
   deviation from the lowest-arc-id merge rule shows up as a different
   trajectory. *)
let check_chunked_matches_serial name g jobs =
  let st0 = Stats.create () in
  let l0, c0 = Howard.minimum_cycle_mean ~stats:st0 ~sweep_min_arcs:64 g in
  let pool = Executor.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Executor.shutdown pool)
    (fun () ->
      let st = Stats.create () in
      let l, c =
        Howard.minimum_cycle_mean ~stats:st ~pool ~sweep_min_arcs:64 g
      in
      Helpers.check_ratio (name ^ ": lambda") l0 l;
      Alcotest.(check (list int)) (name ^ ": cycle") c0 c;
      Alcotest.(check bool)
        (name ^ ": stats bit-equal") true (st0 = st))

let test_chunked_sweep_tie_heavy () =
  List.iter
    (fun jobs ->
      (* every arc weighs 7: maximal ties, m = 96·95 = 9120 arcs *)
      check_chunked_matches_serial
        (Printf.sprintf "uniform complete, jobs=%d" jobs)
        (Families.complete ~weights:(7, 7) 96)
        jobs;
      check_chunked_matches_serial
        (Printf.sprintf "unit ring, jobs=%d" jobs)
        (Families.ring 8192) jobs;
      check_chunked_matches_serial
        (Printf.sprintf "sprand, jobs=%d" jobs)
        (Sprand.generate ~seed:7 ~n:2048 ~m:6144 ())
        jobs)
    [ 2; 3; Helpers.default_jobs ]

(* On arbitrary strongly connected graphs, with the chunking threshold
   forced all the way down so even ~10-arc instances split. *)
let qcheck_chunked_sweep_matches_serial =
  QCheck.Test.make
    ~name:"howard: chunked sweep bit-identical to serial (any graph)"
    ~count:60
    (Helpers.arb_strongly_connected ~max_n:10 ~max_extra:20 ~wlo:(-5) ~whi:5 ())
    (fun g ->
      let st0 = Stats.create () in
      let l0, c0 = Howard.minimum_cycle_mean ~stats:st0 ~sweep_min_arcs:2 g in
      List.for_all
        (fun jobs ->
          let pool = Executor.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Executor.shutdown pool)
            (fun () ->
              let st = Stats.create () in
              let l, c =
                Howard.minimum_cycle_mean ~stats:st ~pool ~sweep_min_arcs:2 g
              in
              Ratio.equal l0 l && c0 = c && st0 = st))
        Helpers.jobs_sweep)

(* The parallel sweep's only steady-state allocation is the O(chunks)
   futures per iteration on the coordinating domain; the chunk winner
   tables live in the preallocated scratch.  Same differential
   technique as the serial test, with a bound that admits the futures
   but would catch any per-arc or per-node allocation. *)
let test_parallel_steady_state_allocation () =
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let pool = Executor.create ~jobs:8 in
  Fun.protect
    ~finally:(fun () -> Executor.shutdown pool)
    (fun () ->
      let scratch = Howard.create_scratch () in
      let stats = Stats.create () in
      ignore
        (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch ~pool
           ~sweep_min_arcs:64 g);
      let total = stats.Stats.iterations in
      Alcotest.(check bool)
        (Printf.sprintf "enough iterations to measure (%d)" total)
        true (total >= 6);
      let run k =
        match
          Howard.minimum_cycle_mean ~init:`First_arc
            ~budget:(Budget.create ~max_iterations:k ())
            ~scratch ~pool ~sweep_min_arcs:64 g
        with
        | exception Budget.Exceeded _ -> ()
        | _ -> Alcotest.fail "the capped run should stop early"
      in
      let words k =
        run k;
        let before = Gc.minor_words () in
        run k;
        Gc.minor_words () -. before
      in
      let k1 = 2 and k2 = total - 1 in
      let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
      Alcotest.(check bool)
        (Printf.sprintf
           "parallel steady-state iteration allocates %.1f words (< 512)"
           per_iter)
        true (per_iter < 512.0))

(* ------------------------------------------------------------------ *)
(* Observability: free when off, invisible when on                     *)
(* ------------------------------------------------------------------ *)

(* The kernel is now instrumented with spans and counters; with the
   global switch off every record call must compile down to a taken
   branch, so the steady-state per-iteration allocation stays exactly
   zero.  Same differential technique as above, but with the strict
   bound the instrumentation must preserve. *)
let test_disabled_tracing_zero_allocation () =
  Alcotest.(check bool) "tracing is off" false (Obs.enabled ());
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let scratch = Howard.create_scratch () in
  let stats = Stats.create () in
  ignore (Howard.minimum_cycle_mean ~stats ~init:`First_arc ~scratch g);
  let total = stats.Stats.iterations in
  Alcotest.(check bool)
    (Printf.sprintf "enough iterations to measure (%d)" total)
    true (total >= 6);
  let run k =
    match
      Howard.minimum_cycle_mean ~init:`First_arc
        ~budget:(Budget.create ~max_iterations:k ())
        ~scratch g
    with
    | exception Budget.Exceeded _ -> ()
    | _ -> Alcotest.fail "the capped run should stop early"
  in
  let words k =
    run k;
    let before = Gc.minor_words () in
    run k;
    Gc.minor_words () -. before
  in
  let k1 = 2 and k2 = total - 1 in
  let per_iter = (words k2 -. words k1) /. float_of_int (k2 - k1) in
  Alcotest.(check bool)
    (Printf.sprintf
       "instrumented kernel, tracing off: %.2f words/iteration (= 0)"
       per_iter)
    true (per_iter = 0.0)

(* Enabling tracing must not perturb any observable output: λ, witness
   and every Stats counter bit-equal with recording on and off, serial
   and parallel.  (Ring capacity is tiny on purpose — wrap
   -around drops records, never correctness.) *)
let qcheck_tracing_invisible =
  QCheck.Test.make
    ~name:"howard: enabling tracing changes no report (jobs 1 and 8)"
    ~count:40
    (Helpers.arb_strongly_connected ~max_n:10 ~max_extra:20 ~wlo:(-5) ~whi:5 ())
    (fun g ->
      let solve pool =
        let st = Stats.create () in
        let l, c =
          Howard.minimum_cycle_mean ~stats:st ?pool ~sweep_min_arcs:2 g
        in
        (l, c, st)
      in
      let with_pool jobs f =
        if jobs = 1 then f None
        else begin
          let pool = Executor.create ~jobs in
          Fun.protect
            ~finally:(fun () -> Executor.shutdown pool)
            (fun () -> f (Some pool))
        end
      in
      List.for_all
        (fun jobs ->
          with_pool jobs (fun pool ->
              let l0, c0, st0 = solve pool in
              Trace.configure ~capacity:1024 ();
              Obs.enable ();
              let result =
                Fun.protect ~finally:Obs.disable (fun () -> solve pool)
              in
              let l, c, st = result in
              Trace.configure ();
              Ratio.equal l0 l && c0 = c && st0 = st))
        [ 1; 8 ])

let qcheck_random_init_agrees =
  QCheck.Test.make ~name:"howard: random init reaches the same optimum"
    ~count:60
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:16 ())
    (fun g ->
      let expect, _ = Howard.minimum_cycle_mean g in
      List.for_all
        (fun seed ->
          let l, c = Howard.minimum_cycle_mean ~init:(`Random seed) g in
          Ratio.equal l expect && Digraph.is_cycle g c)
        [ 0; 1; 42 ])

(* A traced solve records two records per iteration (the
   [howard.iteration] span) and three per solve (the [howard.solve]
   span and one [howard.improved] sample), plus two (a [bf.run] span)
   per probe of the exact finisher: a
   serving process traces every solve into one fixed ring, so the
   per-iteration cost is what decides how much history it keeps. *)
let test_traced_record_budget () =
  let g = Sprand.generate ~seed:3 ~n:2000 ~m:6000 () in
  let stats = Stats.create () in
  Trace.configure ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.configure ())
    (fun () ->
      ignore (Howard.minimum_cycle_mean ~stats ~init:`First_arc g);
      let iters = stats.Stats.iterations
      and probes = stats.Stats.oracle_calls in
      Alcotest.(check bool)
        (Printf.sprintf "enough iterations to measure (%d)" iters)
        true (iters >= 6);
      Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
      let evs = Trace.events () in
      let named p =
        List.length
          (List.filter (fun e -> p (Obs.name_of e.Trace.ev_id)) evs)
      in
      Alcotest.(check int) "one span per iteration" (2 * iters)
        (named (String.equal "howard.iteration"));
      Alcotest.(check int) "howard records: 2 per iteration + 3"
        ((2 * iters) + 3)
        (named (String.starts_with ~prefix:"howard."));
      Alcotest.(check int) "one howard.improved sample" 1
        (named (String.equal "howard.improved"));
      Alcotest.(check bool)
        (Printf.sprintf "%d records <= 2 * %d iterations + 3 + 2 * %d probes"
           (Trace.recorded ()) iters probes)
        true
        (Trace.recorded () <= (2 * iters) + 3 + (2 * probes)))

let suite =
  [
    Alcotest.test_case "steady state allocates O(1) words" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "scratch reuse across graphs" `Quick test_scratch_reuse;
    Alcotest.test_case "blown-budget scratch = fresh" `Quick
      test_scratch_after_blown_budget;
    Alcotest.test_case "chunked sweep bit-identical on tie-heavy graphs"
      `Quick test_chunked_sweep_tie_heavy;
    Alcotest.test_case "parallel steady state allocates O(chunks) words"
      `Quick test_parallel_steady_state_allocation;
    Alcotest.test_case "instrumented kernel allocates 0 words with tracing off"
      `Quick test_disabled_tracing_zero_allocation;
  ]
  @ Helpers.qtests
      [
        qcheck_random_init_agrees; qcheck_chunked_sweep_matches_serial;
        qcheck_tracing_invisible;
      ]
  @ [
      Alcotest.test_case "traced solve records 2 per iteration + O(1)" `Quick
        test_traced_record_budget;
    ]
