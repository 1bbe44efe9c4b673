(* Dynamic session subsystem (lib/dyn): equivalence with cold solves
   after arbitrary update sequences (including SCC merges and splits),
   steady-path allocation, journal replay, the NDJSON codec, and the
   Dyn_serve fingerprint cache. *)

(* ------------------------------------------------------------------ *)
(* Cold-solve reference                                                *)
(* ------------------------------------------------------------------ *)

(* Both sides rendered to a comparable string: λ, witness (graph-arc
   ids), component count — or the Invalid_argument message.  Stats are
   deliberately excluded: a warm query only counts the work it did. *)
let show_answer = function
  | Error msg -> "error: " ^ msg
  | Ok None -> "acyclic"
  | Ok (Some (lambda, cycle, components)) ->
    Printf.sprintf "%s [%s] k=%d" (Ratio.to_string lambda)
      (String.concat ";" (List.map string_of_int cycle))
      components

let cold_answer ~problem ~objective ~jobs g =
  match Solver.solve ~problem ~objective ~jobs ~algorithm:Registry.Howard g with
  | Some r -> Ok (Some (r.Solver.lambda, r.Solver.cycle, r.Solver.components))
  | None -> Ok None
  | exception Invalid_argument msg -> Error msg

let session_answer s =
  match Dyn.query s with
  | Some r ->
    Ok
      (Some
         ( r.Dyn.lambda,
           List.map (Dyn.to_graph_arc s) r.Dyn.cycle,
           r.Dyn.components ))
  | None -> Ok None
  | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Randomized mixed-update equivalence                                 *)
(* ------------------------------------------------------------------ *)

let pick_live s rng =
  if Dyn.live_arcs s = 0 then None
  else begin
    let count = Dyn.arc_count s in
    let a = ref (Rng.int rng count) in
    while not (Dyn.arc_alive s !a) do
      a := Rng.int rng count
    done;
    Some !a
  end

(* One random update, returned as applied; arc insertions/removals
   drive SCC merges and splits on these tiny graphs constantly. *)
let random_update ~tlo s rng =
  let n = Dyn.n s in
  let roll = Rng.int rng 10 in
  let u =
    match pick_live s rng with
    | Some a when roll < 5 ->
      Dyn.Set_weight { arc = a; weight = Rng.in_range rng (-20) 20 }
    | Some a when roll < 7 ->
      Dyn.Set_transit { arc = a; transit = Rng.in_range rng tlo 3 }
    | Some a when roll = 7 -> Dyn.Remove_arc { arc = a }
    | _ ->
      Dyn.Add_arc
        {
          arc = Dyn.arc_count s;
          src = Rng.int rng n;
          dst = Rng.int rng n;
          weight = Rng.in_range rng (-20) 20;
          transit = Rng.in_range rng (max tlo 0) 3;
        }
  in
  Dyn.apply s u;
  u

let check_fingerprint what s =
  Alcotest.(check string) (what ^ ": fingerprint matches snapshot")
    (Fingerprint.to_hex (Fingerprint.of_graph (Dyn.graph s)))
    (Fingerprint.to_hex (Dyn.fingerprint s))

let base_graph ~tlo rng n m =
  let arcs = ref [] in
  for _ = 1 to m do
    arcs :=
      ( Rng.int rng n, Rng.int rng n, Rng.in_range rng (-20) 20,
        Rng.in_range rng (max tlo 0) 3 )
      :: !arcs
  done;
  Digraph.of_arcs n !arcs

let mixed_updates ~problem ~objective ~jobs ~seed ~updates () =
  let rng = Rng.create seed in
  (* ratio sessions also draw zero transits, so ill-posed instances —
     and the error-message parity with Solver — are exercised *)
  let tlo = match problem with Solver.Cycle_ratio -> 0 | _ -> 1 in
  let g = base_graph ~tlo rng 8 12 in
  let s = Dyn.create ~problem ~objective ~jobs g in
  Fun.protect ~finally:(fun () -> Dyn.close s) @@ fun () ->
  for step = 1 to updates do
    ignore (random_update ~tlo s rng);
    let what = Printf.sprintf "step %d (epoch %d)" step (Dyn.epoch s) in
    (* the fingerprint is checked after every update, before or after
       the query, so both the O(1) label path and the rebuild inside a
       re-partition (reached from either call) are exercised *)
    let fp_first = Rng.bool rng in
    if fp_first then check_fingerprint what s;
    let want = cold_answer ~problem ~objective ~jobs:1 (Dyn.graph s) in
    let got = session_answer s in
    Alcotest.(check string) what (show_answer want) (show_answer got);
    if not fp_first then check_fingerprint what s
  done;
  Alcotest.(check int) "epoch counts updates" updates (Dyn.epoch s)

let replay_roundtrip () =
  let rng = Rng.create 42 in
  let g = base_graph ~tlo:1 rng 8 12 in
  let s = Dyn.create g in
  let updates = List.init 120 (fun _ -> random_update ~tlo:1 s rng) in
  (* 120 updates with no query between: label edits land while the
     partition is stale *)
  check_fingerprint "unqueried session" s;
  let s2 = Dyn.replay g updates in
  Alcotest.(check int) "same epoch" (Dyn.epoch s) (Dyn.epoch s2);
  Alcotest.(check string) "same fingerprint"
    (Fingerprint.to_hex (Dyn.fingerprint s))
    (Fingerprint.to_hex (Dyn.fingerprint s2));
  Alcotest.(check string) "same answer"
    (show_answer (session_answer s))
    (show_answer (session_answer s2))

(* ------------------------------------------------------------------ *)
(* Error parity with Solver                                            *)
(* ------------------------------------------------------------------ *)

let err f = try f () |> ignore; "no error" with Invalid_argument m -> m

let zero_transit_parity () =
  let g = Digraph.of_arcs 2 [ (0, 1, 1, 0); (1, 0, 1, 0) ] in
  let want =
    err (fun () ->
        Solver.solve ~problem:Solver.Cycle_ratio ~algorithm:Registry.Howard g)
  in
  let s = Dyn.create ~problem:Solver.Cycle_ratio g in
  Alcotest.(check string) "same message" want (err (fun () -> Dyn.query s));
  (* raising the transit on one arc cures the instance *)
  Dyn.set_transit s 0 5;
  match Dyn.query s with
  | Some r -> Helpers.check_ratio "cured" (Ratio.make 2 5) r.Dyn.lambda
  | None -> Alcotest.fail "expected a cycle"

let overflow_parity () =
  let g = Digraph.of_arcs 1 [ (0, 0, max_int / 4, 1) ] in
  let want =
    err (fun () -> Solver.solve ~algorithm:Registry.Howard g)
  in
  let s = Dyn.create g in
  Alcotest.(check string) "same message" want (err (fun () -> Dyn.query s))

let dead_arc_updates () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 1); (1, 0, 2) ] in
  let s = Dyn.create g in
  Dyn.remove_arc s 0;
  Alcotest.(check bool) "set_weight on dead arc raises" true
    (match Dyn.set_weight s 0 5 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "failed update does not tick the epoch" 1 (Dyn.epoch s);
  (* the graph is now acyclic *)
  Alcotest.(check string) "acyclic" "acyclic" (show_answer (session_answer s));
  (* re-adding a back arc restores a cycle: SCC merge via insertion *)
  let a = Dyn.add_arc s ~src:0 ~dst:1 ~weight:7 ~transit:1 in
  Alcotest.(check string) "merged"
    (show_answer (cold_answer ~problem:Solver.Cycle_mean
                    ~objective:Solver.Minimize ~jobs:1 (Dyn.graph s)))
    (show_answer (session_answer s));
  Alcotest.(check int) "fresh session id" 2 a

(* ------------------------------------------------------------------ *)
(* Steady-path allocation                                              *)
(* ------------------------------------------------------------------ *)

(* A weight-only update + re-query on one component must not allocate
   proportionally to the whole graph: the partition, materialization
   and kernel scratch are all reused, so per-round minor words stay
   bounded by the touched component's size (policy seed + finisher),
   not by n = 2048. *)
let steady_allocation () =
  let g = Families.many_scc ~components:64 ~size:32 () in
  let s = Dyn.create g in
  ignore (Dyn.query s);
  (* arc 0 is the 0 -> 1 ring arc of component 0 *)
  for i = 1 to 5 do
    Dyn.set_weight s 0 (100 + i);
    ignore (Dyn.query s)
  done;
  let rounds = 100 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Dyn.set_weight s 0 (1000 + (i mod 7));
    ignore (Dyn.query s)
  done;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "per-round minor words %.0f < 8192" per_round)
    true
    (per_round < 8192.0)

(* A label edit adjusts the fingerprint's lane sums in place: on a
   4096-register maximize session (the stream-edit shape), an edit plus
   a fingerprint costs a few words — the result — not a negated copy
   of the graph and a re-hash of every arc. *)
let fingerprint_edit_allocation () =
  let g = Circuit.generate ~seed:3 ~registers:4096 () in
  let s = Dyn.create ~objective:Solver.Maximize g in
  ignore (Dyn.query s);
  ignore (Dyn.fingerprint s);
  let m = Dyn.arc_count s and rounds = 200 in
  let w0 = Gc.minor_words () in
  for i = 1 to rounds do
    Dyn.set_weight s (i * 37 mod m) (1 + (i mod 100));
    ignore (Dyn.fingerprint s)
  done;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "set_weight + fingerprint: %.0f minor words (<= 64)"
       per_round)
    true (per_round <= 64.0);
  check_fingerprint "after the edits" s

(* A session keeps no per-update history: the live heap after 20 000
   label edits is the heap after 1 000, up to noise. *)
let bounded_session_memory () =
  let g = Circuit.generate ~seed:5 ~registers:256 () in
  let s = Dyn.create g in
  ignore (Dyn.query s);
  let m = Dyn.arc_count s in
  let edit i =
    Dyn.set_weight s (i * 7 mod m) (1 + (i mod 100));
    if i mod 500 = 0 then ignore (Dyn.query s)
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for i = 1 to 1_000 do edit i done;
  let after_1k = live_words () in
  for i = 1_001 to 20_000 do edit i done;
  let after_20k = live_words () in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d (< 20000)" (after_20k - after_1k))
    true
    (after_20k - after_1k < 20_000);
  Alcotest.(check int) "epoch" 20_000 (Dyn.epoch s)

(* ------------------------------------------------------------------ *)
(* Single-SCC ratio sessions and set_transit                           *)
(* ------------------------------------------------------------------ *)

let single_scc_ratio () =
  let g = Sprand.generate ~seed:7 ~n:30 ~m:90 ~transits:(1, 5) () in
  let s = Dyn.create ~problem:Solver.Cycle_ratio g in
  let rng = Rng.create 11 in
  for _ = 1 to 25 do
    let a = Rng.int rng (Digraph.m g) in
    if Rng.int rng 2 = 0 then Dyn.set_weight s a (Rng.in_range rng 1 10000)
    else Dyn.set_transit s a (Rng.in_range rng 1 5);
    let want_l, want_c = Howard.minimum_cycle_ratio (Dyn.graph s) in
    match Dyn.query s with
    | Some r ->
      Helpers.check_ratio "session ratio = cold ratio" want_l r.Dyn.lambda;
      Alcotest.(check (list int)) "same witness" want_c
        (List.map (Dyn.to_graph_arc s) r.Dyn.cycle)
    | None -> Alcotest.fail "expected a cycle"
  done

let set_transit_guards () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 1); (1, 0, 2); (1, 2, 3) ] in
  let s = Dyn.create g in
  Alcotest.(check bool) "negative transit raises" true
    (match Dyn.set_transit s 0 (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad arc raises" true
    (match Dyn.set_transit s 99 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Dyn.remove_arc s 2;
  Alcotest.(check bool) "dead arc raises" true
    (match Dyn.set_transit s 2 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "failed updates do not tick the epoch" 1 (Dyn.epoch s)

(* ------------------------------------------------------------------ *)
(* NDJSON codec                                                        *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip () =
  let ops =
    [
      Dyn_protocol.Update (Dyn.Set_weight { arc = 3; weight = -17 });
      Dyn_protocol.Update (Dyn.Set_transit { arc = 0; transit = 4 });
      Dyn_protocol.Update
        (Dyn.Add_arc { arc = 9; src = 1; dst = 2; weight = 5; transit = 2 });
      Dyn_protocol.Update (Dyn.Remove_arc { arc = 7 });
      Dyn_protocol.Query { q_eps = None; q_exact = false };
      Dyn_protocol.Query { q_eps = None; q_exact = true };
      Dyn_protocol.Epoch;
      Dyn_protocol.Fingerprint_op;
      Dyn_protocol.Telemetry_op;
      Dyn_protocol.Quit;
    ]
  in
  List.iter
    (fun op ->
      let line = Dyn_protocol.render_op op in
      match Dyn_protocol.parse line with
      | Ok op' ->
        Alcotest.(check bool) ("roundtrip " ^ line) true (op = op')
      | Error e -> Alcotest.fail (line ^ ": " ^ e))
    ops

let codec_errors () =
  let bad l =
    match Dyn_protocol.parse l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "garbage" true (bad "not json");
  Alcotest.(check bool) "missing op" true (bad {|{"arc":1}|});
  Alcotest.(check bool) "unknown op" true (bad {|{"op":"frobnicate"}|});
  Alcotest.(check bool) "missing field" true (bad {|{"op":"set_weight"}|});
  Alcotest.(check bool) "nested value" true (bad {|{"op":{"x":1}}|});
  Alcotest.(check bool) "bad mode" true (bad {|{"op":"query","mode":"nope"}|});
  Alcotest.(check bool) "mode int" true (bad {|{"op":"query","mode":1}|});
  (* "eps" is no field of any op: ignored like every unknown field *)
  Alcotest.(check bool) "eps ignored" true
    (match Dyn_protocol.parse {|{"op":"query","eps":0.05}|} with
    | Ok (Dyn_protocol.Query { q_exact = false; _ }) -> true
    | _ -> false);
  Alcotest.(check bool) "eps ignored in exact mode" true
    (match Dyn_protocol.parse {|{"op":"query","mode":"exact","eps":-1}|} with
    | Ok (Dyn_protocol.Query { q_exact = true; _ }) -> true
    | _ -> false);
  Alcotest.(check bool) "mode float ok" true
    (match Dyn_protocol.parse {|{"op":"query","mode":"float"}|} with
    | Ok (Dyn_protocol.Query { q_eps = None; q_exact = false }) -> true
    | _ -> false);
  (* defaulted transit parses *)
  Alcotest.(check bool) "default transit" true
    (match Dyn_protocol.parse {|{"op":"add_arc","src":0,"dst":1,"weight":3}|} with
    | Ok (Dyn_protocol.Update (Dyn.Add_arc { transit = 1; arc = -1; _ })) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dyn_serve: errors continue the stream, fingerprint cache hits       *)
(* ------------------------------------------------------------------ *)

let contains line needle =
  let ll = String.length line and nl = String.length needle in
  let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
  go 0

let serve_reply srv line =
  match Dyn_serve.handle srv line with
  | `Reply r -> r
  | `Quit -> Alcotest.fail "unexpected quit"

let serve_stream () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 2); (1, 0, 4); (2, 2, 9) ] in
  let srv = Dyn_serve.create (Dyn.create g) in
  let r = serve_reply srv {|{"op":"query"}|} in
  Alcotest.(check bool) "first query solves" true
    (contains r {|"cached":false|} && contains r {|"lambda":"3"|});
  (* malformed line mid-stream: structured error, session unharmed *)
  let r = serve_reply srv "}{ nonsense" in
  Alcotest.(check bool) "structured error" true (contains r {|"ok":false|});
  let r = serve_reply srv {|{"op":"set_weight","arc":99,"weight":1}|} in
  Alcotest.(check bool) "bad arc is an error reply" true
    (contains r {|"ok":false|});
  (* a weight change re-solves, reverting it hits the fingerprint cache *)
  ignore (serve_reply srv {|{"op":"set_weight","arc":0,"weight":10}|});
  let r = serve_reply srv {|{"op":"query"}|} in
  Alcotest.(check bool) "changed graph misses" true
    (contains r {|"cached":false|} && contains r {|"lambda":"7"|});
  ignore (serve_reply srv {|{"op":"set_weight","arc":0,"weight":2}|});
  let r = serve_reply srv {|{"op":"query"}|} in
  Alcotest.(check bool) "reverted graph hits the cache" true
    (contains r {|"cached":true|} && contains r {|"lambda":"3"|});
  let r = serve_reply srv {|{"op":"telemetry"}|} in
  Alcotest.(check bool) "telemetry counts the dynamic hit" true
    (contains r {|"cache_hits":1|} && contains r {|"cache_misses":2|});
  (* structural updates through the protocol: add an arc (reply carries
     the assigned session id), remove one, and keep answering *)
  let r = serve_reply srv {|{"op":"add_arc","src":2,"dst":0,"weight":1}|} in
  Alcotest.(check bool) "add_arc replies with the new id" true
    (contains r {|"arc":3|});
  let r = serve_reply srv {|{"op":"query"}|} in
  Alcotest.(check bool) "query after add_arc" true
    (contains r {|"lambda":"3"|});
  let r = serve_reply srv {|{"op":"remove_arc","arc":2}|} in
  Alcotest.(check bool) "remove_arc ok" true (contains r {|"ok":true|});
  let r = serve_reply srv {|{"op":"query"}|} in
  Alcotest.(check bool) "query after remove_arc" true
    (contains r {|"lambda":"3"|} && contains r {|"components":1|});
  Alcotest.(check bool) "quit" true
    (Dyn_serve.handle srv {|{"op":"quit"}|} = `Quit)

(* ------------------------------------------------------------------ *)

let suite =
  [
    (* the nominally-serial legs honor OCR_TEST_JOBS (CI's forced-
       multicore leg sets 8), so every update/query mix also runs
       through the pooled fan-out and the chunked sweep there *)
    Alcotest.test_case "mean/min: 220 mixed updates = cold solves (jobs=1)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
         ~jobs:Helpers.default_jobs ~seed:1 ~updates:220);
    Alcotest.test_case "mean/min: 220 mixed updates = cold solves (jobs=8)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
         ~jobs:8 ~seed:2 ~updates:220);
    Alcotest.test_case "mean/max: 200 mixed updates = cold solves (jobs=1)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_mean ~objective:Solver.Maximize
         ~jobs:Helpers.default_jobs ~seed:3 ~updates:200);
    Alcotest.test_case "ratio/min: 220 mixed updates = cold solves (jobs=1)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_ratio ~objective:Solver.Minimize
         ~jobs:Helpers.default_jobs ~seed:4 ~updates:220);
    Alcotest.test_case "ratio/min: 200 mixed updates = cold solves (jobs=8)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_ratio ~objective:Solver.Minimize
         ~jobs:8 ~seed:5 ~updates:200);
    Alcotest.test_case "ratio/max: 200 mixed updates = cold solves (jobs=1)"
      `Quick
      (mixed_updates ~problem:Solver.Cycle_ratio ~objective:Solver.Maximize
         ~jobs:Helpers.default_jobs ~seed:6 ~updates:200);
    Alcotest.test_case "journal replay reproduces the session" `Quick
      replay_roundtrip;
    Alcotest.test_case "zero-transit ratio: Solver's message, then cured"
      `Quick zero_transit_parity;
    Alcotest.test_case "overflow preflight: Solver's message" `Quick
      overflow_parity;
    Alcotest.test_case "dead-arc updates raise without ticking the epoch"
      `Quick dead_arc_updates;
    Alcotest.test_case "weight edit + re-query allocates O(component)"
      `Quick steady_allocation;
    Alcotest.test_case "label edit + fingerprint allocates O(1)" `Quick
      fingerprint_edit_allocation;
    Alcotest.test_case "20 000 label edits keep the live heap flat" `Quick
      bounded_session_memory;
    Alcotest.test_case "single-SCC ratio = cold" `Quick
      single_scc_ratio;
    Alcotest.test_case "Dyn.set_transit guards" `Quick set_transit_guards;
    Alcotest.test_case "protocol codec roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "protocol codec rejects malformed lines" `Quick
      codec_errors;
    Alcotest.test_case "Dyn_serve: errors continue, fingerprint cache hits"
      `Quick serve_stream;
  ]

(* ------------------------------------------------------------------ *)
(* Single-SCC sessions: the part's subgraph is the materialized graph  *)
(* ------------------------------------------------------------------ *)

(* On a strongly connected graph Scc.partition returns the session's
   materialized graph itself as the one part's subgraph, so every label
   edit writes the same arrays twice (same index, same value).  Label
   edits never change the structure, so the session stays one component
   throughout and must keep answering exactly as a cold solve. *)
let single_scc_label_edits ~problem ~objective ~seed () =
  let tlo = match problem with Solver.Cycle_ratio -> 0 | _ -> 1 in
  let g =
    Sprand.generate ~seed ~n:24 ~m:72 ~weights:(-20, 20) ~transits:(1, 3) ()
  in
  let s = Dyn.create ~problem ~objective ~jobs:Helpers.default_jobs g in
  Fun.protect ~finally:(fun () -> Dyn.close s) @@ fun () ->
  let rng = Rng.create seed in
  for step = 1 to 150 do
    let a = Rng.int rng (Dyn.arc_count s) in
    if Rng.bool rng then Dyn.set_weight s a (Rng.in_range rng (-30) 30)
    else Dyn.set_transit s a (Rng.in_range rng tlo 4);
    let want = cold_answer ~problem ~objective ~jobs:1 (Dyn.graph s) in
    let got = session_answer s in
    Alcotest.(check string)
      (Printf.sprintf "step %d" step)
      (show_answer want) (show_answer got)
  done

let qcheck_single_scc_sessions =
  QCheck.Test.make
    ~name:"dyn: single-SCC session label edits = cold solves" ~count:12
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 2))
    (fun (seed, pick) ->
      let problem, objective =
        match pick with
        | 0 -> (Solver.Cycle_mean, Solver.Minimize)
        | 1 -> (Solver.Cycle_mean, Solver.Maximize)
        | _ -> (Solver.Cycle_ratio, Solver.Minimize)
      in
      single_scc_label_edits ~problem ~objective ~seed ();
      true)

let suite = suite @ Helpers.qtests [ qcheck_single_scc_sessions ]

(* ------------------------------------------------------------------ *)
(* The re-solve path: hint probe, then Newton                          *)
(* ------------------------------------------------------------------ *)

(* An arc insertion makes a new component, which carries the old λ as
   its hint: a heavy arc leaves the optimum where it was, so one
   location pass answers, with no descent.  Removing a witness arc
   raises the optimum past the hint, and Newton's descent answers. *)
let hint_then_newton () =
  let g = Sprand.generate ~seed:21 ~n:256 ~m:768 () in
  let s = Dyn.create g in
  let cold () =
    cold_answer ~problem:Solver.Cycle_mean ~objective:Solver.Minimize ~jobs:1
      (Dyn.graph s)
  in
  let query () =
    match Dyn.query s with
    | Some r -> r
    | None -> Alcotest.fail "expected a cycle"
  in
  let first = query () in
  Alcotest.(check int) "one component" 1 first.Dyn.components;
  ignore (Dyn.add_arc s ~src:0 ~dst:1 ~weight:1_000_000 ~transit:1);
  let r = query () in
  Alcotest.(check int) "heavy arc: one probe" 1 r.Dyn.stats.Stats.oracle_calls;
  Alcotest.(check int) "heavy arc: no descent" 0 r.Dyn.stats.Stats.iterations;
  Alcotest.(check string) "heavy arc: = cold" (show_answer (cold ()))
    (show_answer (session_answer s));
  Dyn.remove_arc s (List.hd r.Dyn.cycle);
  let r' = query () in
  Alcotest.(check bool) "witness arc removed: the optimum rose" true
    (Ratio.lt r.Dyn.lambda r'.Dyn.lambda);
  Alcotest.(check bool) "witness arc removed: Newton descends" true
    (r'.Dyn.stats.Stats.iterations > 0);
  Alcotest.(check string) "witness arc removed: = cold" (show_answer (cold ()))
    (show_answer (session_answer s))

let suite =
  suite
  @ [
      Alcotest.test_case "heavy arc: one probe; witness cut: Newton" `Quick
        hint_then_newton;
    ]

(* ------------------------------------------------------------------ *)
(* Structural steps: the local rebuild equals a full re-partition      *)
(* ------------------------------------------------------------------ *)

(* Tie-heavy graphs of several SCCs: [k] blocks of 2..4 nodes, each a
   ring plus one chord, joined by one-way bridges, every weight in
   0..2, so equal optima in different components are the rule and
   component order decides which witness a query reports. *)
let tie_graph rng =
  let k = 2 + Rng.int rng 4 and size = 2 + Rng.int rng 3 in
  let label () = (Rng.in_range rng 0 2, Rng.in_range rng 1 2) in
  let arcs = ref [] in
  let add u v =
    let w, tt = label () in
    arcs := (u, v, w, tt) :: !arcs
  in
  for b = 0 to k - 1 do
    let base = b * size in
    for i = 0 to size - 1 do
      add (base + i) (base + ((i + 1) mod size))
    done;
    add (base + Rng.int rng size) (base + Rng.int rng size);
    if b > 0 then add (base - 1) (base + Rng.int rng size)
  done;
  Digraph.of_arcs (k * size) (List.rev !arcs)

(* The session's partition against Scc.partition of its snapshot, in
   min form, with session arc ids through [of_graph_arc]: same
   component order, node and arc arrays, and subgraphs. *)
let partition_matches s =
  let g = Dyn.graph s in
  let g =
    match Dyn.objective s with
    | Solver.Minimize -> g
    | Solver.Maximize -> Digraph.negate_weights g
  in
  let subs = Scc.partition g (Scc.compute g) in
  let view = (Dyn.partition s).Dyn.parts in
  Array.length subs = Array.length view
  && Array.for_all2
       (fun (sp : Scc.subproblem) (nodes, arcs, sub) ->
         sp.Scc.node_of_sub = nodes
         && Array.map (Dyn.of_graph_arc s) sp.Scc.arc_of_sub = arcs
         && Digraph.equal_structure sp.Scc.sub sub)
       subs view

(* A structural step: an insertion inside a current component (the
   local path), the removal of a live arc (local when it lies in no
   component or leaves its component strongly connected), or an
   insertion between two random nodes (often a merge, which
   re-partitions).  Some steps add a label edit before the check, so
   it lands while the partition is stale. *)
let structural_script ~objective seed =
  let rng = Rng.create seed in
  let s = Dyn.create ~objective (tie_graph rng) in
  let n = Dyn.n s in
  let label () = (Rng.in_range rng 0 2, Rng.in_range rng 1 2) in
  let insert src dst =
    let weight, transit = label () in
    ignore (Dyn.add_arc s ~src ~dst ~weight ~transit)
  in
  let ok = ref true and intra = ref 0 in
  for _ = 1 to 40 do
    let parts = (Dyn.partition s).Dyn.parts in
    (match Rng.int rng 3 with
    | 0 when Array.length parts > 0 ->
      let nodes, _, _ = parts.(Rng.int rng (Array.length parts)) in
      let pick () = nodes.(Rng.int rng (Array.length nodes)) in
      incr intra;
      insert (pick ()) (pick ())
    | 1 -> (
      match pick_live s rng with
      | Some a -> Dyn.remove_arc s a
      | None -> insert (Rng.int rng n) (Rng.int rng n))
    | _ -> insert (Rng.int rng n) (Rng.int rng n));
    (if Rng.int rng 4 = 0 then
       match pick_live s rng with
       | Some a -> Dyn.set_weight s a (Rng.in_range rng 0 2)
       | None -> ());
    ok :=
      !ok && partition_matches s
      && show_answer (cold_answer ~problem:Solver.Cycle_mean ~objective
                        ~jobs:1 (Dyn.graph s))
         = show_answer (session_answer s)
  done;
  let view = Dyn.partition s in
  let local = view.Dyn.local_refreshes
  and total = view.Dyn.local_refreshes + view.Dyn.full_refreshes in
  Printf.printf "seed %d: %d of %d structural refreshes local (%d intra insertions)\n"
    seed local total !intra;
  (* every insertion inside a component takes the local path *)
  !ok && local >= !intra

let qcheck_structural_partition =
  QCheck.Test.make
    ~name:"dyn: local structural rebuilds = full re-partition (tie-heavy)"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, max) ->
      structural_script
        ~objective:(if max then Solver.Maximize else Solver.Minimize)
        seed)

(* Consecutive insertions inside components outgrow the buffers the
   session rebuilds its graph in, several times over (a graph of m
   arcs grows them to m + m/8): every insertion still takes the local
   path and leaves the partition a full re-partition would give.  Half
   the scripts start from one cycle covering every node, the other
   half from tie_graph's chain of components. *)
let growth_script ~objective ~covering seed =
  let rng = Rng.create seed in
  let g =
    if covering then begin
      let n = 2 + Rng.int rng 8 in
      Digraph.of_arcs n
        (List.init n (fun u ->
             (u, (u + 1) mod n, Rng.in_range rng 0 2, Rng.in_range rng 1 2)))
    end
    else tie_graph rng
  in
  let s = Dyn.create ~objective ~jobs:Helpers.default_jobs g in
  Fun.protect ~finally:(fun () -> Dyn.close s) @@ fun () ->
  let insertions = 60 and ok = ref true in
  let before = (Dyn.partition s).Dyn.local_refreshes in
  for _ = 1 to insertions do
    let parts = (Dyn.partition s).Dyn.parts in
    let nodes, _, _ = parts.(Rng.int rng (Array.length parts)) in
    let pick () = nodes.(Rng.int rng (Array.length nodes)) in
    ignore
      (Dyn.add_arc s ~src:(pick ()) ~dst:(pick ())
         ~weight:(Rng.in_range rng 0 2) ~transit:(Rng.in_range rng 1 2));
    ok :=
      !ok && partition_matches s
      && show_answer
           (cold_answer ~problem:Solver.Cycle_mean ~objective ~jobs:1
              (Dyn.graph s))
         = show_answer (session_answer s)
  done;
  !ok && (Dyn.partition s).Dyn.local_refreshes - before = insertions

let qcheck_buffer_growth =
  QCheck.Test.make
    ~name:"dyn: local rebuilds past the buffers' capacity = full re-partition"
    ~count:20
    QCheck.(triple (int_range 0 1_000_000) bool bool)
    (fun (seed, max, covering) ->
      growth_script
        ~objective:(if max then Solver.Maximize else Solver.Minimize)
        ~covering seed)

(* Two structural edits between queries re-partition in full, and a
   component covering every node carries its answer over exactly when
   its arcs are the same: an insertion undone before the query
   re-solves nothing, a removal plus an insertion re-solves it. *)
let covering_carry_over () =
  let g =
    Digraph.of_arcs 4
      [ (0, 1, 1, 1); (1, 2, 1, 1); (2, 3, 1, 1); (3, 0, 1, 1); (0, 2, 4, 1) ]
  in
  let s = Dyn.create ~jobs:Helpers.default_jobs g in
  Fun.protect ~finally:(fun () -> Dyn.close s) @@ fun () ->
  let step what ~resolved =
    let r = Option.get (Dyn.query s) in
    Alcotest.(check string) what
      (show_answer
         (cold_answer ~problem:Solver.Cycle_mean ~objective:Solver.Minimize
            ~jobs:1 (Dyn.graph s)))
      (show_answer (session_answer s));
    Alcotest.(check int) (what ^ ": resolved") resolved r.Dyn.resolved;
    Alcotest.(check bool) (what ^ ": partition") true (partition_matches s)
  in
  step "first query" ~resolved:1;
  let undone = Dyn.add_arc s ~src:1 ~dst:3 ~weight:0 ~transit:1 in
  Dyn.remove_arc s undone;
  step "insertion undone" ~resolved:0;
  Dyn.remove_arc s 4;
  ignore (Dyn.add_arc s ~src:2 ~dst:2 ~weight:(-3) ~transit:1);
  step "chord swapped for a light self-loop" ~resolved:1

(* A snapshot owns its arrays: the structural steps after it rebuild
   the session's graph in place, in buffers the snapshot must not
   share, and never touch the graph the session was created from. *)
let snapshot_survives_rebuilds () =
  let g = Circuit.generate ~seed:5 ~registers:64 () in
  let base = Graph_io.to_string g in
  let s = Dyn.create ~objective:Solver.Maximize ~jobs:Helpers.default_jobs g in
  Fun.protect ~finally:(fun () -> Dyn.close s) @@ fun () ->
  ignore (Dyn.query s);
  let snap = Dyn.graph s in
  let before = Graph_io.to_string snap in
  let rng = Rng.create 7 in
  let n = Dyn.n s in
  let inserted = ref [] in
  for i = 1 to 40 do
    (if i mod 3 = 0 && !inserted <> [] then begin
       Dyn.remove_arc s (List.hd !inserted);
       inserted := List.tl !inserted
     end
     else
       inserted :=
         Dyn.add_arc s ~src:(Rng.int rng n) ~dst:(Rng.int rng n)
           ~weight:(Rng.in_range rng (-5) 5) ~transit:1
         :: !inserted);
    Dyn.set_weight s 0 i;
    ignore (Dyn.query s)
  done;
  Alcotest.(check bool) "the session took the local path" true
    ((Dyn.partition s).Dyn.local_refreshes > 0);
  Alcotest.(check string) "snapshot unchanged" before
    (Graph_io.to_string snap);
  Alcotest.(check string) "base graph unchanged" base (Graph_io.to_string g)

(* ------------------------------------------------------------------ *)
(* The dyn.rebuild span                                                *)
(* ------------------------------------------------------------------ *)

let traced f =
  Trace.configure ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.configure ())
    (fun () ->
      f ();
      Trace.events ())

(* begins and ends pair up as a stack, per domain *)
let balanced evs =
  let stacks = Hashtbl.create 4 in
  List.for_all
    (fun (e : Trace.event) ->
      let st = Option.value (Hashtbl.find_opt stacks e.Trace.ev_dom) ~default:[] in
      match e.Trace.ev_kind with
      | `Begin ->
        Hashtbl.replace stacks e.Trace.ev_dom (e.Trace.ev_id :: st);
        true
      | `End -> (
        match st with
        | id :: rest when id = e.Trace.ev_id ->
          Hashtbl.replace stacks e.Trace.ev_dom rest;
          true
        | _ -> false)
      | `Instant | `Counter -> true)
    evs
  && Hashtbl.fold (fun _ st acc -> acc && st = []) stacks true

let rebuild_span () =
  let sp = Obs.intern "dyn.rebuild" in
  let rebuilds evs =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.ev_kind = `Begin && e.Trace.ev_id = sp)
         evs)
  in
  let g = Circuit.generate ~seed:3 ~registers:256 () in
  let s = Dyn.create ~objective:Solver.Maximize g in
  ignore (Dyn.query s);
  let label =
    traced (fun () ->
        Dyn.set_weight s 0 7;
        ignore (Dyn.query s))
  in
  let structural =
    traced (fun () ->
        ignore (Dyn.add_arc s ~src:0 ~dst:1 ~weight:5 ~transit:1);
        ignore (Dyn.query s))
  in
  Alcotest.(check int) "label edit + query: no dyn.rebuild" 0 (rebuilds label);
  Alcotest.(check int) "add_arc + query: one dyn.rebuild" 1 (rebuilds structural);
  Alcotest.(check bool) "label trace balanced" true (balanced label);
  Alcotest.(check bool) "structural trace balanced" true (balanced structural)

(* ------------------------------------------------------------------ *)
(* Zero-transit cycles across structural edits                         *)
(* ------------------------------------------------------------------ *)

(* A ratio session keeps its well-posedness verdict across a removal
   and across an insertion with positive transit; an insertion with
   zero transit or a removal from an ill-posed graph asks again.  The
   message stays Solver's, and the cure is seen. *)
let zero_transit_structural () =
  let g = Digraph.of_arcs 3 [ (0, 1, 1, 1); (1, 0, 1, 1); (1, 2, 4, 1) ] in
  let s = Dyn.create ~problem:Solver.Cycle_ratio g in
  let check what =
    let want =
      show_answer
        (cold_answer ~problem:Solver.Cycle_ratio ~objective:Solver.Minimize
           ~jobs:1 (Dyn.graph s))
    in
    Alcotest.(check string) what want (show_answer (session_answer s))
  in
  let ill what =
    check what;
    Alcotest.(check bool) (what ^ ": ill-posed") true
      (String.length (show_answer (session_answer s)) > 6
      && String.sub (show_answer (session_answer s)) 0 6 = "error:")
  in
  check "well-posed";
  let loop = Dyn.add_arc s ~src:2 ~dst:2 ~weight:3 ~transit:0 in
  ill "zero-transit self-loop inserted";
  Dyn.remove_arc s loop;
  check "self-loop removed: cured";
  let back = Dyn.add_arc s ~src:2 ~dst:1 ~weight:1 ~transit:2 in
  check "positive-transit insertion";
  let fwd = Dyn.add_arc s ~src:1 ~dst:2 ~weight:1 ~transit:0 in
  check "one zero-transit arc closes no zero-transit cycle";
  let back0 = Dyn.add_arc s ~src:2 ~dst:1 ~weight:1 ~transit:0 in
  ill "two zero-transit arcs close one";
  Dyn.remove_arc s back;
  ill "removing another arc keeps it ill-posed";
  Dyn.remove_arc s fwd;
  check "zero-transit cycle broken: cured";
  ignore back0

let suite =
  suite
  @ Helpers.qtests [ qcheck_structural_partition; qcheck_buffer_growth ]
  @ [
      Alcotest.test_case "a snapshot survives in-place rebuilds" `Quick
        snapshot_survives_rebuilds;
      Alcotest.test_case "two structural edits: exact carry-over" `Quick
        covering_carry_over;
      Alcotest.test_case "dyn.rebuild spans structural steps only" `Quick
        rebuild_span;
      Alcotest.test_case "zero-transit ratio: structural edits, then cured"
        `Quick zero_transit_structural;
    ]
