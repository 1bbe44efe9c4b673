(* The ocr_obs substrate: ring-buffer recording, the metrics registry,
   the exporters, the trace reader, and the escaping helpers the
   telemetry exporters now rely on. *)

let sp_a = Obs.intern "test.a"
let sp_b = Obs.intern "test.b"
let sp_c = Obs.intern "test.counter"

(* run [f] with tracing on in a fresh ring configuration, restoring the
   disabled default afterwards so the allocation tests of other suites
   stay valid *)
let with_tracing ?capacity f =
  Trace.configure ?capacity ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.configure ())
    f

(* ------------------------------------------------------------------ *)
(* interning and recording                                             *)
(* ------------------------------------------------------------------ *)

let test_intern () =
  Alcotest.(check int) "idempotent" sp_a (Obs.intern "test.a");
  Alcotest.(check string) "inverse" "test.a" (Obs.name_of sp_a);
  Alcotest.(check bool) "distinct names, distinct ids" true (sp_a <> sp_b)

let test_recording_roundtrip () =
  with_tracing (fun () ->
      Trace.begin_span sp_a;
      Trace.begin_span sp_b;
      Trace.counter_int sp_c 42;
      Trace.end_span sp_b;
      Trace.instant sp_b;
      Trace.end_span sp_a;
      let evs = Trace.events () in
      Alcotest.(check int) "six records" 6 (List.length evs);
      let kinds = List.map (fun e -> e.Trace.ev_kind) evs in
      Alcotest.(check bool)
        "kind sequence" true
        (kinds = [ `Begin; `Begin; `Counter; `End; `Instant; `End ]);
      let ts = List.map (fun e -> e.Trace.ev_ts) evs in
      Alcotest.(check bool)
        "timestamps monotone" true
        (List.sort compare ts = ts);
      match List.nth evs 2 with
      | { Trace.ev_id; ev_arg; _ } ->
        Alcotest.(check int) "counter id" sp_c ev_id;
        Alcotest.(check (float 0.0)) "counter value" 42.0 ev_arg)

let test_disabled_records_nothing () =
  Trace.configure ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Trace.begin_span sp_a;
  Trace.end_span sp_a;
  Trace.instant sp_b;
  Trace.counter_int sp_c 1;
  Alcotest.(check int) "no records" 0 (List.length (Trace.events ()))

let test_ring_wraparound () =
  with_tracing ~capacity:16 (fun () ->
      for _ = 1 to 50 do
        Trace.instant sp_a
      done;
      let evs = Trace.events () in
      Alcotest.(check int) "ring keeps capacity records" 16 (List.length evs);
      Alcotest.(check int) "all recorded counted" 50 (Trace.recorded ());
      Alcotest.(check int) "drops counted" 34 (Trace.dropped ()))

(* ------------------------------------------------------------------ *)
(* Chrome export -> reader round trip                                  *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_roundtrip () =
  with_tracing (fun () ->
      Trace.begin_span sp_a;
      Trace.begin_span sp_b;
      Trace.end_span sp_b;
      Trace.end_span sp_a;
      Trace.instant sp_c;
      let json = Trace.to_chrome_json () in
      (match Trace_read.parse_json json with
      | Error e -> Alcotest.fail ("export is not valid JSON: " ^ e)
      | Ok (Trace_read.Obj fields) ->
        Alcotest.(check bool)
          "has traceEvents" true
          (List.mem_assoc "traceEvents" fields)
      | Ok _ -> Alcotest.fail "export is not a JSON object");
      match Trace_read.summarize json with
      | Error e -> Alcotest.fail e
      | Ok rows ->
        let row name =
          List.find (fun r -> r.Trace_read.sr_name = name) rows
        in
        Alcotest.(check int) "outer span count" 1 (row "test.a").sr_count;
        Alcotest.(check int) "inner span count" 1 (row "test.b").sr_count;
        (* the inner span nests inside the outer one, so the outer
           self-time is its total minus the inner total *)
        let a = row "test.a" and b = row "test.b" in
        Alcotest.(check (float 0.001))
          "self = total - nested" (a.sr_total_us -. b.sr_total_us)
          a.sr_self_us)

(* ------------------------------------------------------------------ *)
(* trace reader on hand-built inputs                                   *)
(* ------------------------------------------------------------------ *)

let mini_trace =
  {|{"traceEvents":[
      {"name":"outer","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
      {"name":"inner","ph":"X","ts":10,"dur":30,"pid":0,"tid":0},
      {"name":"inner","ph":"X","ts":50,"dur":20,"pid":0,"tid":0},
      {"name":"other","ph":"X","ts":0,"dur":5,"pid":0,"tid":1},
      {"name":"noise","ph":"i","ts":1,"pid":0,"tid":0}
  ]}|}

let test_summarize_self_time () =
  match Trace_read.summarize mini_trace with
  | Error e -> Alcotest.fail e
  | Ok rows ->
    let row name = List.find (fun r -> r.Trace_read.sr_name = name) rows in
    Alcotest.(check (float 1e-9)) "outer total" 100.0 (row "outer").sr_total_us;
    Alcotest.(check (float 1e-9)) "outer self" 50.0 (row "outer").sr_self_us;
    Alcotest.(check int) "inner count" 2 (row "inner").sr_count;
    Alcotest.(check (float 1e-9)) "inner self" 50.0 (row "inner").sr_self_us;
    (* rows sorted by self-time descending; "other" is on its own track *)
    Alcotest.(check (float 1e-9)) "other self" 5.0 (row "other").sr_self_us;
    Alcotest.(check bool)
      "sorted by self desc" true
      (match rows with
      | r1 :: r2 :: r3 :: _ ->
        r1.Trace_read.sr_self_us >= r2.Trace_read.sr_self_us
        && r2.Trace_read.sr_self_us >= r3.Trace_read.sr_self_us
      | _ -> false)

let test_summarize_bare_array () =
  match
    Trace_read.summarize
      {|[{"name":"x","ph":"X","ts":0,"dur":7,"pid":0,"tid":0}]|}
  with
  | Error e -> Alcotest.fail e
  | Ok [ r ] ->
    Alcotest.(check string) "name" "x" r.Trace_read.sr_name;
    Alcotest.(check (float 1e-9)) "total" 7.0 r.Trace_read.sr_total_us
  | Ok _ -> Alcotest.fail "expected exactly one row"

let test_summarize_malformed () =
  let is_error s =
    match Trace_read.summarize s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "garbage" true (is_error "not json at all");
  Alcotest.(check bool) "truncated" true (is_error {|{"traceEvents":[|});
  Alcotest.(check bool) "wrong shape" true (is_error {|{"traceEvents":42}|});
  Alcotest.(check bool) "number literal" true (is_error "123abc");
  (* events missing fields are skipped, not fatal *)
  match
    Trace_read.summarize
      {|{"traceEvents":[{"ph":"X"},{"name":"ok","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}|}
  with
  | Ok [ r ] -> Alcotest.(check string) "survivor" "ok" r.Trace_read.sr_name
  | Ok _ -> Alcotest.fail "expected one surviving row"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* tagged events (distributed tracing)                                 *)
(* ------------------------------------------------------------------ *)

(* helpers over parsed merged/exported traces *)
let events_of json =
  match Trace_read.parse_json json with
  | Ok (Trace_read.Obj fields) -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Trace_read.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "trace is not an object"
  | Error e -> Alcotest.fail e

let ev_str e k =
  match e with
  | Trace_read.Obj fields -> (
    match List.assoc_opt k fields with
    | Some (Trace_read.Str s) -> Some s
    | _ -> None)
  | _ -> None

let ev_num e k =
  match e with
  | Trace_read.Obj fields -> (
    match List.assoc_opt k fields with
    | Some (Trace_read.Num f) -> Some f
    | _ -> None)
  | _ -> None

let find_events json ~name ~ph =
  List.filter
    (fun e -> ev_str e "name" = Some name && ev_str e "ph" = Some ph)
    (events_of json)

let test_tagged_async_export () =
  with_tracing (fun () ->
      (* two same-name spans overlapping in a non-LIFO way: stack
         pairing would mis-attribute them, async pairing by trace id
         must not *)
      Trace.begin_span_id sp_a 7;
      Trace.begin_span_id sp_a 9;
      Trace.end_span_id sp_a 7;
      Trace.instant_id sp_b 7;
      Trace.end_span_id sp_a 9;
      Trace.begin_span sp_b;
      Trace.end_span sp_b;
      let json = Trace.to_chrome_json () in
      let ids ph =
        find_events json ~name:"test.a" ~ph
        |> List.filter_map (fun e -> ev_str e "id")
        |> List.sort compare
      in
      Alcotest.(check (list string)) "async begins" [ "7"; "9" ] (ids "b");
      Alcotest.(check (list string)) "async ends" [ "7"; "9" ] (ids "e");
      (match find_events json ~name:"test.b" ~ph:"i" with
      | [ e ] -> (
        match e with
        | Trace_read.Obj fields -> (
          match List.assoc_opt "args" fields with
          | Some (Trace_read.Obj args) ->
            Alcotest.(check bool)
              "instant carries args.trace" true
              (List.assoc_opt "trace" args = Some (Trace_read.Num 7.0))
          | _ -> Alcotest.fail "tagged instant without args")
        | _ -> Alcotest.fail "bad event shape")
      | l ->
        Alcotest.fail
          (Printf.sprintf "expected one tagged instant, got %d"
             (List.length l)));
      (* the untagged span still exports as a stack-paired complete
         event *)
      Alcotest.(check int)
        "untagged span is ph X" 1
        (List.length (find_events json ~name:"test.b" ~ph:"X")))

let test_tagged_disabled_no_alloc () =
  Trace.configure ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    Trace.begin_span_id sp_a i;
    Trace.instant_id sp_b i;
    Trace.end_span_id sp_a i
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "no allocation while disabled" 0.0 allocated

let test_set_process_absolute () =
  with_tracing (fun () ->
      Trace.set_process ~pid:3 ~name:"worker 2" ();
      Trace.set_clock_offset_ns 1_500_000;
      Trace.instant sp_a;
      let json = Trace.to_chrome_json () in
      (match find_events json ~name:"clock_offset_ns" ~ph:"M" with
      | [ Trace_read.Obj fields ] ->
        (match List.assoc_opt "args" fields with
        | Some (Trace_read.Obj args) ->
          Alcotest.(check bool)
            "offset recorded" true
            (List.assoc_opt "value" args = Some (Trace_read.Num 1_500_000.0))
        | _ -> Alcotest.fail "offset record without args");
        Alcotest.(check (option (float 0.0)))
          "offset record carries the pid" (Some 3.0)
          (ev_num (Trace_read.Obj fields) "pid")
      | _ -> Alcotest.fail "expected one clock_offset_ns record");
      match find_events json ~name:"test.a" ~ph:"i" with
      | [ e ] ->
        Alcotest.(check (option (float 0.0))) "event pid" (Some 3.0)
          (ev_num e "pid");
        (* absolute mode: timestamps are not rebased to the first
           record, so a fresh instant is far from zero *)
        Alcotest.(check bool)
          "absolute timestamp" true
          (match ev_num e "ts" with Some ts -> ts > 1e6 | None -> false)
      | _ -> Alcotest.fail "expected the one instant");
  (* configure resets the identity: a fresh trace is standalone again *)
  with_tracing (fun () ->
      Trace.instant sp_a;
      match find_events (Trace.to_chrome_json ()) ~name:"test.a" ~ph:"i" with
      | [ e ] ->
        Alcotest.(check (option (float 0.0))) "pid back to 0" (Some 0.0)
          (ev_num e "pid");
        Alcotest.(check bool)
          "timestamps rebased again" true
          (match ev_num e "ts" with Some ts -> ts < 1e6 | None -> false)
      | _ -> Alcotest.fail "expected the one instant")

(* ------------------------------------------------------------------ *)
(* multi-process merge                                                 *)
(* ------------------------------------------------------------------ *)

(* synthetic two-process run: the router dispatches request 1 to a
   worker whose clock reads 1ms behind the router's *)
let router_events =
  [
    {|{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"router"}}|};
    {|{"name":"clock_offset_ns","ph":"M","pid":0,"tid":0,"args":{"value":0}}|};
    {|{"name":"rt.request","cat":"ocr","ph":"b","id":"1","ts":1000,"pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.admit","cat":"ocr","ph":"i","ts":1000,"s":"t","pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.sent","cat":"ocr","ph":"i","ts":1100,"s":"t","pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.head","cat":"ocr","ph":"i","ts":1100,"s":"t","pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.reply","cat":"ocr","ph":"i","ts":5000,"s":"t","pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.done","cat":"ocr","ph":"i","ts":5050,"s":"t","pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.request","cat":"ocr","ph":"e","id":"1","ts":5050,"pid":0,"tid":0,"args":{"trace":1}}|};
    {|{"name":"rt.admit","cat":"ocr","ph":"i","ts":6000,"s":"t","pid":0,"tid":0,"args":{"trace":2}}|};
  ]

let worker_events =
  [
    {|{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"worker 0"}}|};
    {|{"name":"clock_offset_ns","ph":"M","pid":1,"tid":0,"args":{"value":1000000}}|};
    {|{"name":"engine.request","cat":"ocr","ph":"b","id":"1","ts":1500,"pid":1,"tid":0,"args":{"trace":1}}|};
    {|{"name":"engine.request","cat":"ocr","ph":"e","id":"1","ts":3500,"pid":1,"tid":0,"args":{"trace":1}}|};
  ]

let trace_file events = "{\"traceEvents\":[" ^ String.concat "," events ^ "]}"

let merge_exn inputs =
  match Trace_read.merge inputs with
  | Ok s -> s
  | Error e -> Alcotest.fail ("merge failed: " ^ e)

let test_merge_offset_and_containment () =
  let merged =
    merge_exn
      [
        ("router.json", trace_file router_events);
        ("worker-0.json", trace_file worker_events);
      ]
  in
  (* the worker's span lands on the router's clock: shifted by the
     recorded +1000000ns = +1000us offset *)
  let b_ts =
    match find_events merged ~name:"engine.request" ~ph:"b" with
    | [ e ] -> Option.get (ev_num e "ts")
    | _ -> Alcotest.fail "expected one worker begin"
  in
  let e_ts =
    match find_events merged ~name:"engine.request" ~ph:"e" with
    | [ e ] -> Option.get (ev_num e "ts")
    | _ -> Alcotest.fail "expected one worker end"
  in
  Alcotest.(check (float 1e-6)) "begin shifted" 2500.0 b_ts;
  Alcotest.(check (float 1e-6)) "end shifted" 4500.0 e_ts;
  (* offset-corrected containment: the worker's solve lies inside the
     router's sent->reply window *)
  Alcotest.(check bool) "contained" true (1100.0 <= b_ts && e_ts <= 5000.0);
  (* events come out in nondecreasing timestamp order *)
  let tss = List.filter_map (fun e -> ev_num e "ts") (events_of merged) in
  Alcotest.(check bool)
    "sorted by ts" true
    (List.sort compare tss = tss)

let test_merge_flow_arrows () =
  let merged =
    merge_exn
      [
        ("router.json", trace_file router_events);
        ("worker-0.json", trace_file worker_events);
      ]
  in
  (match find_events merged ~name:"req" ~ph:"s" with
  | [ e ] ->
    Alcotest.(check (option string)) "flow id" (Some "1") (ev_str e "id");
    Alcotest.(check (option (float 1e-6)))
      "flow starts at rt.sent" (Some 1100.0) (ev_num e "ts");
    Alcotest.(check (option (float 0.0))) "on the router track" (Some 0.0)
      (ev_num e "pid")
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected one flow start, got %d" (List.length l)));
  match find_events merged ~name:"req" ~ph:"f" with
  | [ e ] ->
    Alcotest.(check (option string)) "flow id" (Some "1") (ev_str e "id");
    Alcotest.(check (option (float 1e-6)))
      "flow ends at the worker's first event" (Some 2500.0) (ev_num e "ts");
    Alcotest.(check (option (float 0.0))) "on the worker track" (Some 1.0)
      (ev_num e "pid");
    Alcotest.(check (option string)) "binds enclosing slice" (Some "e")
      (ev_str e "bp")
  | l ->
    Alcotest.fail
      (Printf.sprintf "expected one flow end, got %d" (List.length l))

let test_merge_bad_input_named () =
  match
    Trace_read.merge
      [ ("router.json", trace_file router_events); ("worker-0.json", "nope") ]
  with
  | Ok _ -> Alcotest.fail "merge accepted a malformed input"
  | Error e ->
    Alcotest.(check bool)
      "error names the offending file" true
      (String.length e >= 13 && String.sub e 0 13 = "worker-0.json")

let qcheck_merge_interleaving_independent =
  let reference =
    lazy
      (merge_exn
         [
           ("a", trace_file router_events); ("b", trace_file worker_events);
         ])
  in
  QCheck.Test.make ~count:60
    ~name:"merge is independent of ring interleaving and file order"
    QCheck.(
      triple
        (make (Gen.shuffle_l router_events))
        (make (Gen.shuffle_l worker_events))
        bool)
    (fun (router', worker', swap) ->
      let inputs =
        [ ("a", trace_file router'); ("b", trace_file worker') ]
      in
      let inputs = if swap then List.rev inputs else inputs in
      merge_exn inputs = Lazy.force reference)

(* ------------------------------------------------------------------ *)
(* per-request attribution                                             *)
(* ------------------------------------------------------------------ *)

let test_attribute_phases () =
  match Trace_read.attribute (trace_file router_events) with
  | Error e -> Alcotest.fail e
  | Ok [ r ] ->
    (* request 2 has only rt.admit (a shed request) and must be
       skipped; request 1's phases follow from the marker timestamps *)
    Alcotest.(check int) "trace id" 1 r.Trace_read.rp_trace;
    Alcotest.(check (float 1e-9)) "dispatch" 100.0 r.Trace_read.rp_dispatch_us;
    Alcotest.(check (float 1e-9)) "queue" 0.0 r.Trace_read.rp_queue_us;
    Alcotest.(check (float 1e-9)) "solve" 3900.0 r.Trace_read.rp_solve_us;
    Alcotest.(check (float 1e-9)) "serialize" 50.0 r.Trace_read.rp_serialize_us;
    Alcotest.(check (float 1e-9)) "total" 4050.0 r.Trace_read.rp_total_us
  | Ok rows ->
    Alcotest.fail (Printf.sprintf "expected one row, got %d" (List.length rows))

let test_attribute_merged_agrees () =
  (* attribution over the merged file sees the same router markers *)
  let merged =
    merge_exn
      [
        ("router.json", trace_file router_events);
        ("worker-0.json", trace_file worker_events);
      ]
  in
  match (Trace_read.attribute (trace_file router_events),
         Trace_read.attribute merged)
  with
  | Ok [ a ], Ok [ b ] ->
    Alcotest.(check (float 1e-9)) "same total" a.Trace_read.rp_total_us
      b.Trace_read.rp_total_us
  | _ -> Alcotest.fail "expected one row on each side"

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Trace_read.percentile xs 0.50);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Trace_read.percentile xs 0.95);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Trace_read.percentile xs 0.99);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Trace_read.percentile xs 1.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Trace_read.percentile [] 0.5);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Trace_read.percentile [ 7.0 ] 0.99)

let test_summarize_file_errors () =
  let check_error path expect_substring =
    match Trace_read.summarize_file path with
    | Ok _ -> Alcotest.fail ("expected an error for " ^ path)
    | Error e ->
      let has =
        let n = String.length e and k = String.length expect_substring in
        let rec scan i =
          i + k <= n && (String.sub e i k = expect_substring || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e expect_substring)
        true has
  in
  let empty = Filename.temp_file "ocr_test_empty" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove empty)
    (fun () -> check_error empty "empty trace file");
  let blank = Filename.temp_file "ocr_test_blank" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove blank)
    (fun () ->
      let oc = open_out blank in
      output_string oc "  \n\t\n";
      close_out oc;
      check_error blank "empty trace file");
  let truncated = Filename.temp_file "ocr_test_trunc" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove truncated)
    (fun () ->
      let oc = open_out truncated in
      output_string oc "{\"traceEvents\":[";
      close_out oc;
      check_error truncated "");
  check_error "/nonexistent/ocr_no_such_trace.json" ""

(* ------------------------------------------------------------------ *)
(* metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check bool)
    "find-or-create returns the same cell" true
    (Metrics.counter m "reqs" == c);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge" 3.5 (Metrics.gauge_value g);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: reqs is not a gauge") (fun () ->
      ignore (Metrics.gauge m "reqs"))

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 100.0 ];
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 108.0 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" 18.0 (Metrics.hist_mean h);
  (* log2 bucket upper bounds: p50 of {<=1,<=1,<=2,<=2,<=4,<=128} is 2 *)
  Alcotest.(check (float 1e-9)) "p50 bound" 2.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 bound" 128.0 (Metrics.quantile h 1.0)

let test_metrics_merge_deterministic () =
  let shard i =
    let m = Metrics.create () in
    Metrics.add (Metrics.counter m "n") i;
    Metrics.observe (Metrics.histogram m "h") (float_of_int i);
    m
  in
  let merged = Metrics.merge (shard 1) (shard 2) in
  Alcotest.(check int) "counters sum" 3
    (Metrics.counter_value (Metrics.counter merged "n"));
  Alcotest.(check int) "histogram counts sum" 2
    (Metrics.hist_count (Metrics.histogram merged "h"));
  (* same shards, either nesting: identical exposition *)
  let a = Metrics.merge (Metrics.merge (shard 1) (shard 2)) (shard 3) in
  let b = Metrics.merge (shard 1) (Metrics.merge (shard 2) (shard 3)) in
  Alcotest.(check string)
    "associative exposition" (Metrics.to_prometheus a)
    (Metrics.to_prometheus b)

let test_prometheus_format () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "ocr_requests_total") 7;
  let h = Metrics.histogram m "ocr_solve_latency_ms" in
  List.iter (Metrics.observe h) [ 0.5; 3.0 ];
  let text = Metrics.to_prometheus m in
  let has s =
    let n = String.length text and k = String.length s in
    let rec scan i = i + k <= n && (String.sub text i k = s || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun line -> Alcotest.(check bool) ("has " ^ line) true (has line))
    [
      "# TYPE ocr_requests_total counter"; "ocr_requests_total 7";
      "# TYPE ocr_solve_latency_ms histogram";
      "ocr_solve_latency_ms_bucket{le=\"1\"} 1";
      "ocr_solve_latency_ms_bucket{le=\"4\"} 2";
      "ocr_solve_latency_ms_bucket{le=\"+Inf\"} 2";
      "ocr_solve_latency_ms_sum 3.5"; "ocr_solve_latency_ms_count 2";
    ]

let contains_sub text s =
  let n = String.length text and k = String.length s in
  let rec scan i = i + k <= n && (String.sub text i k = s || scan (i + 1)) in
  scan 0

let test_labeled_histogram_exposition () =
  let m = Metrics.create () in
  let h0 = Metrics.histogram m "ocr_queue_wait_ms{worker=\"0\"}" in
  let h1 = Metrics.histogram m "ocr_queue_wait_ms{worker=\"1\"}" in
  List.iter (Metrics.observe h0) [ 0.5; 3.0 ];
  Metrics.observe h1 10.0;
  let text = Metrics.to_prometheus m in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("has " ^ line) true (contains_sub text line))
    [
      "# TYPE ocr_queue_wait_ms histogram";
      "ocr_queue_wait_ms_bucket{worker=\"0\",le=\"1\"} 1";
      "ocr_queue_wait_ms_bucket{worker=\"0\",le=\"4\"} 2";
      "ocr_queue_wait_ms_bucket{worker=\"0\",le=\"+Inf\"} 2";
      "ocr_queue_wait_ms_sum{worker=\"0\"} 3.5";
      "ocr_queue_wait_ms_count{worker=\"0\"} 2";
      "ocr_queue_wait_ms_bucket{worker=\"1\",le=\"16\"} 1";
      "ocr_queue_wait_ms_count{worker=\"1\"} 1";
    ]

let test_labeled_histogram_roundtrip () =
  let m = Metrics.create () in
  let h0 = Metrics.histogram m "ocr_request_total_ms{worker=\"0\"}" in
  let h1 = Metrics.histogram m "ocr_request_total_ms{worker=\"1\"}" in
  List.iter (Metrics.observe h0) [ 0.5; 3.0; 200.0 ];
  Metrics.observe h1 10.0;
  Metrics.add (Metrics.counter m "plain_total") 2;
  let text = Metrics.to_prometheus m in
  match Metrics.of_prometheus text with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    (* the parsed registry distinguishes the per-worker series *)
    Alcotest.(check int) "worker 0 count" 3
      (Metrics.hist_count
         (Metrics.histogram m' "ocr_request_total_ms{worker=\"0\"}"));
    Alcotest.(check int) "worker 1 count" 1
      (Metrics.hist_count
         (Metrics.histogram m' "ocr_request_total_ms{worker=\"1\"}"));
    Alcotest.(check (float 1e-9)) "worker 0 sum" 203.5
      (Metrics.hist_sum
         (Metrics.histogram m' "ocr_request_total_ms{worker=\"0\"}"));
    (* and the re-exposition is byte-identical, so aggregation across
       processes is stable under the text round-trip *)
    Alcotest.(check string) "exposition round-trips" text
      (Metrics.to_prometheus m')

(* ------------------------------------------------------------------ *)
(* escaping helpers and the telemetry export fix                       *)
(* ------------------------------------------------------------------ *)

let test_json_string_escaping () =
  let roundtrip s =
    match Trace_read.parse_json (Obs.json_string s) with
    | Ok (Trace_read.Str s') -> s'
    | Ok _ -> Alcotest.fail "not a string literal"
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (roundtrip s))
    [ "plain"; "with \"quotes\""; "back\\slash"; "tab\tnewline\n"; "\x01\x1f" ]

let test_csv_field_quoting () =
  Alcotest.(check string) "plain untouched" "plain" (Obs.csv_field "plain");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Obs.csv_field "a,b");
  Alcotest.(check string)
    "inner quotes doubled" "\"a\"\"b\"" (Obs.csv_field "a\"b");
  Alcotest.(check string)
    "newline quoted" "\"a\nb\"" (Obs.csv_field "a\nb")

(* the PR-motivating bug: an algorithm name with quotes/commas must
   leave to_json parseable and to_csv one-field-safe *)
let test_telemetry_export_escaping () =
  let tel = Telemetry.create () in
  let evil = "ho\"ward, the \\ 2nd" in
  Telemetry.record_run tel evil ~wall_ms:1.5;
  Telemetry.incr tel Telemetry.requests;
  (match Trace_read.parse_json (Telemetry.to_json tel) with
  | Error e -> Alcotest.fail ("to_json unparsable: " ^ e)
  | Ok (Trace_read.Obj fields) -> (
    match List.assoc "algorithms" fields with
    | Trace_read.Arr [ Trace_read.Obj alg ] -> (
      match List.assoc "name" alg with
      | Trace_read.Str name ->
        Alcotest.(check string) "name round-trips" evil name
      | _ -> Alcotest.fail "name is not a string")
    | _ -> Alcotest.fail "algorithms is not a one-object array")
  | Ok _ -> Alcotest.fail "to_json is not an object");
  let csv = Telemetry.to_csv tel in
  let quoted = Printf.sprintf "\"alg_ho\"\"ward, the \\ 2nd_runs\",1" in
  Alcotest.(check bool)
    "csv quotes the metric name" true
    (List.mem quoted (String.split_on_char '\n' csv))

(* "declared once": every row of the telemetry table reaches the
   exposition, the CSV and the JSON under its one name, and adding a
   counter is adding a row *)
let test_telemetry_table_views () =
  let tel = Telemetry.create () in
  Telemetry.record_run tel "howard" ~wall_ms:1.5;
  let expo =
    String.split_on_char '\n'
      (Metrics.to_prometheus (Telemetry.snapshot tel))
  in
  let csv = String.split_on_char '\n' (Telemetry.to_csv tel) in
  let json =
    match Trace_read.parse_json (Telemetry.to_json tel) with
    | Ok (Trace_read.Obj fields) -> fields
    | _ -> Alcotest.fail "to_json is not an object"
  in
  let alg_json =
    match List.assoc_opt "algorithms" json with
    | Some (Trace_read.Arr [ Trace_read.Obj fields ]) -> fields
    | _ -> Alcotest.fail "algorithms is not a one-object array"
  in
  let names = List.map (fun (r : Telemetry.row) -> r.name) Telemetry.table in
  Alcotest.(check int) "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (r : Telemetry.row) ->
      let name = Telemetry.instantiate r.name "howard" in
      let key = Telemetry.instantiate r.key "howard" in
      let kind =
        match r.kind with
        | Telemetry.Ms | Telemetry.Per_alg Telemetry.Ms -> "histogram"
        | _ -> "counter"
      in
      Alcotest.(check bool)
        (name ^ " in the exposition") true
        (List.mem (Printf.sprintf "# TYPE %s %s" name kind) expo);
      Alcotest.(check bool)
        (key ^ " in the CSV") true
        (List.exists (String.starts_with ~prefix:(key ^ ",")) csv);
      if r.key <> "wall_ms" then
        Alcotest.(check string) (name ^ " keyed by its name")
          ("ocr_" ^ r.key)
          (if String.ends_with ~suffix:"_total" r.name then
             String.sub r.name 0 (String.length r.name - 6)
           else r.name);
      match r.kind with
      | Telemetry.Per_alg _ ->
        let inner = String.sub r.key 6 (String.length r.key - 6) in
        Alcotest.(check bool)
          (key ^ " in the JSON algorithm object") true
          (List.mem_assoc inner alg_json)
      | _ ->
        Alcotest.(check bool)
          (key ^ " in the JSON") true (List.mem_assoc key json))
    Telemetry.table

let suite =
  [
    Alcotest.test_case "interning" `Quick test_intern;
    Alcotest.test_case "recording round-trip" `Quick test_recording_roundtrip;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
    Alcotest.test_case "chrome export parses and nests" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "summarize computes self-time" `Quick
      test_summarize_self_time;
    Alcotest.test_case "summarize accepts bare arrays" `Quick
      test_summarize_bare_array;
    Alcotest.test_case "summarize rejects malformed files" `Quick
      test_summarize_malformed;
    Alcotest.test_case "tagged spans export as async pairs" `Quick
      test_tagged_async_export;
    Alcotest.test_case "tagged entry points allocate nothing when off" `Quick
      test_tagged_disabled_no_alloc;
    Alcotest.test_case "set_process switches to absolute export" `Quick
      test_set_process_absolute;
    Alcotest.test_case "merge aligns clocks and contains spans" `Quick
      test_merge_offset_and_containment;
    Alcotest.test_case "merge synthesizes per-request flows" `Quick
      test_merge_flow_arrows;
    Alcotest.test_case "merge names the malformed input" `Quick
      test_merge_bad_input_named;
    QCheck_alcotest.to_alcotest qcheck_merge_interleaving_independent;
    Alcotest.test_case "attribute extracts request phases" `Quick
      test_attribute_phases;
    Alcotest.test_case "attribute agrees on the merged file" `Quick
      test_attribute_merged_agrees;
    Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
    Alcotest.test_case "summarize_file maps bad files to errors" `Quick
      test_summarize_file_errors;
    Alcotest.test_case "labeled histogram exposition" `Quick
      test_labeled_histogram_exposition;
    Alcotest.test_case "labeled histogram text round-trip" `Quick
      test_labeled_histogram_roundtrip;
    Alcotest.test_case "counters and gauges" `Quick test_metrics_basics;
    Alcotest.test_case "histogram log2 buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "shard merge is deterministic" `Quick
      test_metrics_merge_deterministic;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_format;
    Alcotest.test_case "json_string escapes correctly" `Quick
      test_json_string_escaping;
    Alcotest.test_case "csv_field quotes correctly" `Quick
      test_csv_field_quoting;
    Alcotest.test_case "telemetry exports escape names" `Quick
      test_telemetry_export_escaping;
    Alcotest.test_case "telemetry table reaches every view" `Quick
      test_telemetry_table_views;
  ]
