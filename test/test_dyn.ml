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
(* Incremental: ratio problems and set_transit (satellite)             *)
(* ------------------------------------------------------------------ *)

let incremental_ratio () =
  let g = Sprand.generate ~seed:7 ~n:30 ~m:90 ~transits:(1, 5) () in
  let inc = Incremental.create ~problem:Critical.Cycle_ratio g in
  let rng = Rng.create 11 in
  for _ = 1 to 25 do
    let a = Rng.int rng (Digraph.m g) in
    if Rng.int rng 2 = 0 then
      Incremental.set_weight inc a (Rng.in_range rng 1 10000)
    else Incremental.set_transit inc a (Rng.in_range rng 1 5);
    let lambda, cycle = Incremental.solve inc in
    let want_l, want_c =
      Howard.minimum_cycle_ratio (Incremental.graph inc)
    in
    Helpers.check_ratio "warm ratio = cold ratio" want_l lambda;
    Alcotest.(check (list int)) "same witness" want_c cycle
  done

let incremental_transit_guard () =
  let g = Digraph.of_weighted_arcs 2 [ (0, 1, 1); (1, 0, 2) ] in
  let inc = Incremental.create g in
  Alcotest.(check bool) "negative transit raises" true
    (match Incremental.set_transit inc 0 (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad arc raises" true
    (match Incremental.set_transit inc 99 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

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
    Alcotest.test_case "Incremental ratio sessions warm = cold" `Quick
      incremental_ratio;
    Alcotest.test_case "Incremental.set_transit guards" `Quick
      incremental_transit_guard;
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
