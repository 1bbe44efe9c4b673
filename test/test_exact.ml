(* Exact-answer mode: the exact lane (Newton's descent), the rational
   certificate cross-check, mode=exact request parsing, and the
   headline property — every float-mode answer on integer-weight inputs
   sits within 1 ulp of the exact rational certificate, across all
   generator families × mean/ratio × min/max × job counts. *)

let ulp x = Float.succ (Float.abs x) -. Float.abs x

let with_engine ~jobs ?(cache_size = 16) f =
  let eng = Engine.create ~jobs ~cache_size () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () -> f eng)

let spec_of ?(algorithm = Request.Auto) ?(mode = Request.Float_answer)
    ~problem ~objective () =
  {
    (Request.default_spec "mem") with
    Request.problem;
    objective;
    algorithm;
    mode;
  }

(* ------------------------------------------------------------------ *)
(* direct exact-lane answers                                           *)
(* ------------------------------------------------------------------ *)

(* algorithm=exact is a routing choice of its own: in float mode it
   still runs the exact lane (no certificate attached), and on an acyclic
   graph it answers Acyclic like every other algorithm. *)
let test_exact_algorithm_routing () =
  let ring4 =
    Digraph.of_arcs 4 (List.init 4 (fun i -> (i, (i + 1) mod 4, 1, 1)))
  in
  let acyclic = Digraph.of_arcs 2 [ (0, 1, 3, 1) ] in
  let spec =
    spec_of ~algorithm:Request.Exact ~problem:Solver.Cycle_mean
      ~objective:Solver.Minimize ()
  in
  with_engine ~jobs:1 (fun eng ->
      (match
         (Engine.solve eng (Request.make ~id:1 ~graph:ring4 spec))
           .Engine.outcome
       with
      | Engine.Solved s ->
        Helpers.check_ratio "float-mode lambda" Ratio.one s.lambda;
        Alcotest.(check string) "answered by" "exact" s.algorithm;
        Alcotest.(check bool) "no cert in float mode" true (s.exact = None)
      | _ -> Alcotest.fail "ring: expected Solved");
      let espec = { spec with Request.mode = Request.Exact_answer } in
      match
        (Engine.solve eng (Request.make ~id:2 ~graph:acyclic espec))
          .Engine.outcome
      with
      | Engine.Acyclic -> ()
      | _ -> Alcotest.fail "acyclic: expected Acyclic")

let test_sb_direct () =
  (* 0 -3-> 1 -4-> 0: the only cycle has mean 7/2 *)
  let g = Digraph.of_arcs 2 [ (0, 1, 3, 1); (1, 0, 4, 1) ] in
  let lambda, cycle = Stern_brocot.minimum_cycle_mean g in
  Helpers.check_ratio "mean" (Helpers.r 7 2) lambda;
  Alcotest.(check (list int)) "witness" [ 0; 1 ] (List.sort compare cycle);
  (* same arcs with transits 1 and 2: ratio 7/3 *)
  let g2 = Digraph.of_arcs 2 [ (0, 1, 3, 1); (1, 0, 4, 2) ] in
  let lambda2, _ = Stern_brocot.minimum_cycle_ratio g2 in
  Helpers.check_ratio "ratio" (Helpers.r 7 3) lambda2;
  (* a negative optimum *)
  let g3 = Digraph.of_arcs 3 [ (0, 1, -5, 1); (1, 2, 2, 1); (2, 0, -4, 1) ] in
  let lambda3, _ = Stern_brocot.minimum_cycle_mean g3 in
  Helpers.check_ratio "negative mean" (Helpers.r (-7) 3) lambda3;
  Alcotest.check_raises "acyclic input"
    (Invalid_argument "Stern_brocot: input graph is acyclic") (fun () ->
      ignore (Stern_brocot.minimum_cycle_mean (Digraph.of_arcs 2 [ (0, 1, 1, 1) ])))

(* The lane never looks at a float: on a strongly connected family
   instance it must reproduce the oracle exactly. *)
let qcheck_sb_matches_oracle =
  QCheck.Test.make ~count:120 ~name:"stern_brocot = oracle (mean and ratio)"
    (Helpers.arb_strongly_connected ~max_n:8 ~max_extra:14 ~tmax:3 ())
    (fun g ->
      let mean, _ = Stern_brocot.minimum_cycle_mean g in
      let ratio, _ = Stern_brocot.minimum_cycle_ratio g in
      let om = Option.get (Helpers.oracle_mean Oracle.Minimize g) in
      let orr = Option.get (Helpers.oracle_ratio Oracle.Minimize g) in
      Ratio.equal mean om && Ratio.equal ratio orr)

(* ------------------------------------------------------------------ *)
(* request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let test_parse_exact () =
  (match Request.parse_spec "g.ocr mode=exact" with
  | Ok s ->
    Alcotest.(check bool) "mode parsed" true (s.Request.mode = Request.Exact_answer)
  | Error e -> Alcotest.fail e);
  (match Request.parse_spec "g.ocr algorithm=exact" with
  | Ok s ->
    Alcotest.(check bool) "lane parsed" true (s.Request.algorithm = Request.Exact)
  | Error e -> Alcotest.fail e);
  let bad l = Result.is_error (Request.parse_spec l) in
  Alcotest.(check bool) "algorithm=approx is unknown" true
    (bad "g.ocr mode=exact algorithm=approx");
  Alcotest.(check bool) "approx-eps is an unknown key" true
    (bad "g.ocr algorithm=exact approx-eps=0.1");
  Alcotest.(check bool) "malformed mode" true (bad "g.ocr mode=banana");
  (* spec_to_string round-trips the new keys *)
  List.iter
    (fun line ->
      match Request.parse_spec line with
      | Error e -> Alcotest.fail e
      | Ok s -> (
        match Request.parse_spec (Request.spec_to_string s) with
        | Ok s' -> Alcotest.(check bool) ("roundtrip " ^ line) true (s = s')
        | Error e -> Alcotest.fail e))
    [
      "g.ocr mode=exact";
      "g.ocr algorithm=exact";
      "g.ocr problem=ratio objective=max algorithm=exact mode=exact";
    ]

(* ------------------------------------------------------------------ *)
(* engine: certificates, cache-key separation                          *)
(* ------------------------------------------------------------------ *)

let ring n = Digraph.of_arcs n (List.init n (fun i -> (i, (i + 1) mod n, 1, 1)))

let test_mode_distinct_cache () =
  let g = ring 4 in
  with_engine ~jobs:1 (fun eng ->
      let fspec =
        spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize ()
      in
      let espec = { fspec with Request.mode = Request.Exact_answer } in
      match
        ( (Engine.solve eng (Request.make ~id:1 ~graph:g fspec)).Engine.outcome,
          (Engine.solve eng (Request.make ~id:2 ~graph:g espec)).Engine.outcome,
          (Engine.solve eng (Request.make ~id:3 ~graph:g espec)).Engine.outcome
        )
      with
      | Engine.Solved s1, Engine.Solved s2, Engine.Solved s3 ->
        Alcotest.(check bool) "float answer carries no cert" true
          (s1.exact = None);
        (* the float entry must NOT satisfy the exact request: distinct
           cache keys force a fresh certified solve *)
        Alcotest.(check bool) "exact miss despite float entry" true
          ((not s2.cached) && s2.exact <> None);
        Alcotest.(check bool) "exact hit keeps its cert" true
          (s3.cached && s3.exact <> None)
      | _ -> Alcotest.fail "unexpected outcomes");
  Alcotest.(check bool)
    "keys differ on mode only" true
    (Request.key (Request.make ~id:1 ~graph:g
         (spec_of ~problem:Solver.Cycle_mean ~objective:Solver.Minimize ()))
    <> Request.key (Request.make ~id:1 ~graph:g
         (spec_of ~mode:Request.Exact_answer ~problem:Solver.Cycle_mean
            ~objective:Solver.Minimize ())))

let test_certificate_errors () =
  let g = ring 4 in
  let cycle = [ 0; 1; 2; 3 ] in
  (match Verify.rational_certificate g Ratio.one cycle with
  | Ok cert -> Helpers.check_ratio "certificate" Ratio.one cert
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "wrong lambda rejected" true
    (Result.is_error (Verify.rational_certificate g (Helpers.r 2 1) cycle));
  Alcotest.(check bool) "empty witness rejected" true
    (Result.is_error (Verify.rational_certificate g Ratio.one []));
  Alcotest.(check bool) "non-cycle rejected" true
    (Result.is_error (Verify.rational_certificate g Ratio.one [ 0; 2 ]))

(* ------------------------------------------------------------------ *)
(* the headline properties                                             *)
(* ------------------------------------------------------------------ *)

let objective_of b = if b then Solver.Maximize else Solver.Minimize
let problem_of b = if b then Solver.Cycle_ratio else Solver.Cycle_mean

(* Exact lane through the engine (per-SCC decomposition, objective
   restoration) answers exactly what Solver.solve answers, with a
   certificate agreeing with λ. *)
let qcheck_exact_lane_matches_solver jobs =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "algorithm=exact --jobs %d = Solver.solve" jobs)
    QCheck.(pair (Helpers.arb_family ()) (pair bool bool))
    (fun (g, (maximize, ratio)) ->
      let objective = objective_of maximize and problem = problem_of ratio in
      let spec =
        spec_of ~algorithm:Request.Exact ~mode:Request.Exact_answer ~problem
          ~objective ()
      in
      with_engine ~jobs (fun eng ->
          let resp = Engine.solve eng (Request.make ~id:1 ~graph:g spec) in
          let expect =
            Solver.solve ~objective ~problem ~algorithm:Registry.Howard g
          in
          match (resp.Engine.outcome, expect) with
          | Engine.Acyclic, None -> true
          | Engine.Solved s, Some r ->
            Ratio.equal s.lambda r.Solver.lambda
            && s.algorithm = "exact"
            && (match s.exact with
               | Some cert -> Ratio.equal cert s.lambda
               | None -> false)
          | _ -> false))

(* Every float-mode answer on integer-weight inputs is pinned inside
   the rational certificate: the Auto portfolio's λ equals the witness
   cycle's exact integer ratio, its denominator respects the paper's
   bound (n for means, total transit for ratios), the representation is
   canonical, and the rendered float is within 1 ulp. *)
let qcheck_float_pinned jobs =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "float answer within 1 ulp of certificate --jobs %d" jobs)
    QCheck.(pair (Helpers.arb_family ()) (pair bool bool))
    (fun (g, (maximize, ratio)) ->
      let objective = objective_of maximize and problem = problem_of ratio in
      let spec = spec_of ~mode:Request.Exact_answer ~problem ~objective () in
      with_engine ~jobs (fun eng ->
          match
            (Engine.solve eng (Request.make ~id:1 ~graph:g spec)).Engine.outcome
          with
          | Engine.Acyclic -> true
          | Engine.Solved s -> (
            match s.exact with
            | None -> false
            | Some cert ->
              let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
              let dmax =
                match problem with
                | Solver.Cycle_mean -> Digraph.n g
                | Solver.Cycle_ratio -> Digraph.total_transit g
              in
              Ratio.equal cert s.lambda
              && Ratio.den cert > 0
              && Ratio.den cert <= dmax
              && (Ratio.num cert = 0
                 || gcd (abs (Ratio.num cert)) (Ratio.den cert) = 1)
              && Float.abs (Ratio.to_float s.lambda -. Ratio.to_float cert)
                 <= ulp (Ratio.to_float cert))
          | _ -> false))

(* The entire observable exact-mode output — certificates included — is
   byte-identical across job counts. *)
let qcheck_exact_lines_jobs_identical =
  QCheck.Test.make ~count:25
    ~name:"exact response lines identical across --jobs"
    (Helpers.arb_family ())
    (fun g ->
      let mk algorithm =
        spec_of ~algorithm ~mode:Request.Exact_answer
          ~problem:Solver.Cycle_mean ~objective:Solver.Minimize ()
      in
      let reqs =
        [
          Request.make ~id:1 ~graph:g (mk Request.Auto);
          Request.make ~id:2 ~graph:g (mk Request.Exact);
          Request.make ~id:3 ~graph:g (mk Request.Auto);
        ]
      in
      let run jobs =
        with_engine ~jobs (fun eng ->
            List.map
              (fun r -> Engine.response_line r)
              (Engine.run_batch eng reqs))
      in
      let base = run 1 in
      List.for_all (fun j -> run j = base) (List.tl Helpers.jobs_sweep))

(* The exact lane is Newton's descent, whose closing probe at λ* finds
   the tight-arc cycle Howard's finisher finds: λ, witness and
   component count equal Howard's. *)
let qcheck_exact_lane_is_howard jobs =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf
         "algorithm=exact --jobs %d = Howard: lambda, witness, components" jobs)
    QCheck.(pair (Helpers.arb_family ()) (pair bool bool))
    (fun (g, (maximize, ratio)) ->
      let objective = objective_of maximize and problem = problem_of ratio in
      let spec = spec_of ~algorithm:Request.Exact ~problem ~objective () in
      with_engine ~jobs (fun eng ->
          match
            ( (Engine.solve eng (Request.make ~id:1 ~graph:g spec))
                .Engine.outcome,
              Solver.solve ~objective ~problem ~algorithm:Registry.Howard g )
          with
          | Engine.Acyclic, None -> true
          | Engine.Solved s, Some r ->
            Ratio.equal s.lambda r.Solver.lambda
            && s.cycle = r.Solver.cycle
            && s.components = r.Solver.components
          | _ -> false))

(* A traced descent records one [newton.solve] span around one [bf.run]
   span per probe, and nothing else. *)
let test_newton_trace_records () =
  let g = Sprand.generate ~seed:2 ~n:512 ~m:1536 () in
  let stats = Stats.create () in
  Trace.configure ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.configure ())
    (fun () ->
      ignore (Newton.minimum_cycle_mean ~stats g);
      let probes = stats.Stats.oracle_calls in
      let named name =
        List.length
          (List.filter
             (fun e -> Obs.name_of e.Trace.ev_id = name)
             (Trace.events ()))
      in
      Alcotest.(check int) "one iteration per probe" probes
        stats.Stats.iterations;
      Alcotest.(check int) "one newton.solve span" 2 (named "newton.solve");
      Alcotest.(check int) "one bf.run span per probe" (2 * probes)
        (named "bf.run");
      Alcotest.(check int) "nothing else" (2 + (2 * probes))
        (Trace.recorded ()))

let suite =
  [
    Alcotest.test_case "algorithm=exact routing" `Quick
      test_exact_algorithm_routing;
    Alcotest.test_case "stern_brocot direct" `Quick test_sb_direct;
    Alcotest.test_case "mode=exact parsing" `Quick test_parse_exact;
    Alcotest.test_case "exact/float cache keys distinct" `Quick
      test_mode_distinct_cache;
    Alcotest.test_case "certificate cross-check errors" `Quick
      test_certificate_errors;
  ]
  @ Helpers.qtests
      ([ qcheck_sb_matches_oracle; qcheck_exact_lines_jobs_identical ]
      @ List.map qcheck_exact_lane_matches_solver Helpers.jobs_sweep
      @ List.map qcheck_float_pinned Helpers.jobs_sweep)
  @ [ Alcotest.test_case "newton: trace records" `Quick test_newton_trace_records ]
  @ Helpers.qtests
      (List.map qcheck_exact_lane_is_howard
         (List.sort_uniq compare [ 1; 4; Helpers.default_jobs ]))
