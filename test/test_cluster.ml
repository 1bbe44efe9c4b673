(* The cluster substrate that must hold without booting processes:
   rendezvous sharding (balance, determinism, minimal reshuffle),
   the Prometheus round-trip the router aggregates through, and the
   LRU resizing that re-splits one cache budget across workers.
   Process-level behaviour (crash, respawn, replay) lives in
   test/cram/cluster.t. *)

(* ------------------------------------------------------------------ *)
(* shard map                                                           *)
(* ------------------------------------------------------------------ *)

let test_assign_deterministic () =
  let m = Shard_map.create ~workers:4 in
  let m' = Shard_map.create ~workers:4 in
  for key = -1000 to 1000 do
    Alcotest.(check (option int))
      "same key, same worker, in any process" (Shard_map.assign m key)
      (Shard_map.assign m' key)
  done

let test_assign_range () =
  let m = Shard_map.create ~workers:3 in
  for key = 0 to 999 do
    match Shard_map.assign m key with
    | Some w when w >= 0 && w < 3 -> ()
    | Some w -> Alcotest.failf "key %d assigned out of range: %d" key w
    | None -> Alcotest.failf "key %d unassigned with all workers up" key
  done

let test_assign_balance () =
  (* 1/sqrt(k) variance: with 10_000 keys over 4 workers each share
     should be well within 2x of fair *)
  let workers = 4 and keys = 10_000 in
  let m = Shard_map.create ~workers in
  let counts = Array.make workers 0 in
  for key = 1 to keys do
    match Shard_map.assign m (key * 7919) with
    | Some w -> counts.(w) <- counts.(w) + 1
    | None -> Alcotest.fail "unassigned"
  done;
  let fair = keys / workers in
  Array.iteri
    (fun w c ->
      if c < fair / 2 || c > fair * 2 then
        Alcotest.failf "worker %d got %d of %d keys (fair share %d)" w c keys
          fair)
    counts

let test_down_worker_excluded () =
  let m = Shard_map.create ~workers:3 in
  Shard_map.set_up m 1 false;
  Alcotest.(check int) "up count" 2 (Shard_map.up_count m);
  for key = 0 to 999 do
    if Shard_map.assign m key = Some 1 then
      Alcotest.failf "key %d assigned to a down worker" key
  done;
  Shard_map.set_up m 1 true;
  Alcotest.(check int) "up count restored" 3 (Shard_map.up_count m)

let test_all_down () =
  let m = Shard_map.create ~workers:2 in
  Shard_map.set_up m 0 false;
  Shard_map.set_up m 1 false;
  Alcotest.(check (option int)) "no owner" None (Shard_map.assign m 42)

(* the consistent-hashing contract: killing one worker moves only that
   worker's keys, and they come back when it does *)
let qcheck_minimal_reshuffle =
  QCheck.Test.make ~name:"shard map: worker loss reshuffles minimally"
    ~count:100
    QCheck.(pair (int_range 2 8) small_int)
    (fun (workers, seed) ->
      let m = Shard_map.create ~workers in
      let keys = List.init 500 (fun i -> (i * 2654435761) + seed) in
      let before = List.map (fun k -> (k, Shard_map.assign m k)) keys in
      let victim = seed mod workers in
      Shard_map.set_up m victim false;
      let ok_down =
        List.for_all
          (fun (k, owner) ->
            match (owner, Shard_map.assign m k) with
            | Some w, Some w' when w = victim ->
              w' <> victim (* moved, to an up worker *)
            | owner, owner' -> owner = owner' (* survivors never move *))
          before
      in
      Shard_map.set_up m victim true;
      let ok_back =
        List.for_all (fun (k, owner) -> Shard_map.assign m k = owner) before
      in
      ok_down && ok_back)

let test_assign_string () =
  let m = Shard_map.create ~workers:2 in
  (match Shard_map.assign_string m "a" with
  | Some w ->
    (* pinned: test/cram/cluster.t kills pid<w> as the worker hosting
       session "a" — if this assignment ever changes, update the cram *)
    Alcotest.(check int) "session \"a\" placement" 1 w
  | None -> Alcotest.fail "unassigned");
  Alcotest.(check (option int))
    "deterministic" (Shard_map.assign_string m "a")
    (Shard_map.assign_string m "a");
  Alcotest.(check int)
    "hash_string deterministic" (Shard_map.hash_string "s344")
    (Shard_map.hash_string "s344")

(* ------------------------------------------------------------------ *)
(* Prometheus round-trip (the router's aggregation wire format)        *)
(* ------------------------------------------------------------------ *)

let test_prometheus_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "ocr_requests_total") 17;
  Metrics.set (Metrics.gauge m "ocr_exec_utilization") 0.5;
  Metrics.set (Metrics.gauge m "ocr_worker_up{worker=\"0\"}") 1.;
  Metrics.set (Metrics.gauge m "ocr_worker_up{worker=\"1\"}") 0.;
  Metrics.add (Metrics.counter m "ocr_worker_restarts_total{worker=\"1\"}") 3;
  let h = Metrics.histogram m "ocr_solve_latency_ms" in
  List.iter (Metrics.observe h) [ 0.5; 0.9; 3.; 100.; 100. ];
  let text = Metrics.to_prometheus m in
  match Metrics.of_prometheus text with
  | Error e -> Alcotest.failf "parse back failed: %s" e
  | Ok m' ->
    Alcotest.(check string) "exposition fixpoint" text
      (Metrics.to_prometheus m')

let test_prometheus_merge_shards () =
  (* two worker snapshots through the wire format, folded like the
     router does: counters add, histograms add, gauges last-write *)
  let shard i =
    let m = Metrics.create () in
    Metrics.add (Metrics.counter m "ocr_requests_total") (10 * (i + 1));
    Metrics.set (Metrics.gauge m "ocr_exec_queue_depth") (float_of_int i);
    Metrics.observe (Metrics.histogram m "ocr_solve_latency_ms") 2.;
    Metrics.to_prometheus m
  in
  let parse text =
    match Metrics.of_prometheus text with
    | Ok m -> m
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let into = parse (shard 0) in
  Metrics.merge_into ~into (parse (shard 1));
  Alcotest.(check int) "counters add" 30
    (Metrics.counter_value (Metrics.counter into "ocr_requests_total"));
  Alcotest.(check int) "histograms add" 2
    (Metrics.hist_count (Metrics.histogram into "ocr_solve_latency_ms"));
  Alcotest.(check (float 1e-9)) "gauge last-write" 1.
    (Metrics.gauge_value (Metrics.gauge into "ocr_exec_queue_depth"))

let test_prometheus_parse_errors () =
  (match Metrics.of_prometheus "ocr_x_total nonsense\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-numeric sample");
  match Metrics.of_prometheus "" with
  | Ok m -> Alcotest.(check string) "empty is empty" "" (Metrics.to_prometheus m)
  | Error e -> Alcotest.failf "empty exposition should parse: %s" e

(* ------------------------------------------------------------------ *)
(* Lru.resize (per-worker cache budgets from one cluster flag)         *)
(* ------------------------------------------------------------------ *)

let test_lru_resize_shrink_evicts_lru () =
  let c = Lru.create ~capacity:4 in
  List.iter (fun k -> Lru.add c k (10 * k)) [ 1; 2; 3; 4 ];
  ignore (Lru.find c 1);
  (* recency now 1 > 4 > 3 > 2 *)
  Lru.resize c 2;
  Alcotest.(check int) "capacity" 2 (Lru.capacity c);
  Alcotest.(check int) "length" 2 (Lru.length c);
  Alcotest.(check (option int)) "mru kept" (Some 10) (Lru.find c 1);
  Alcotest.(check (option int)) "next kept" (Some 40) (Lru.find c 4);
  Alcotest.(check (option int)) "lru evicted" None (Lru.find c 2);
  Alcotest.(check (option int)) "lru evicted 2" None (Lru.find c 3)

let test_lru_resize_grow_and_disable () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 1;
  Lru.add c 2 2;
  Lru.resize c 3;
  Lru.add c 3 3;
  Alcotest.(check int) "grow keeps everything" 3 (Lru.length c);
  Alcotest.(check (option int)) "old entry intact" (Some 1) (Lru.find c 1);
  Lru.resize c 0;
  Alcotest.(check int) "resize 0 clears" 0 (Lru.length c);
  Lru.add c 9 9;
  Alcotest.(check (option int)) "disabled cache rejects adds" None
    (Lru.find c 9);
  Lru.resize c 2;
  Lru.add c 9 9;
  Alcotest.(check (option int)) "re-enabled cache works" (Some 9)
    (Lru.find c 9)

(* ------------------------------------------------------------------ *)
(* worker exposition                                                   *)
(* ------------------------------------------------------------------ *)

let with_temp_file suffix contents f =
  let path = Filename.temp_file "ocr_test_worker" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

(* A worker with one engine and two sessions exports every table row
   once, each the sum of what a standalone engine and two standalone
   sessions fed the same lines count. *)
let test_worker_exposition_sums_parts () =
  let g3 = "p ocr 3 3\na 1 2 2 1\na 2 1 4 1\na 3 3 9 1\n" in
  with_temp_file ".ocr" g3 @@ fun graph ->
  let serve = [ graph; graph ^ " verify=true"; graph ^ " problem=ratio" ] in
  let ops sid =
    List.map
      (fun op -> Printf.sprintf "{%s,\"session\":%S}" op sid)
      [ {|"op":"query"|}; {|"op":"query"|}; {|"op":"query","eps":0.05|};
        {|"op":"set_weight","arc":9,"weight":1|} ]
  in
  let open_ sid =
    Printf.sprintf {|{"op":"open","session":%S,"graph":%S}|} sid graph
  in
  let lines =
    serve @ [ open_ "a" ] @ ops "a" @ [ open_ "b" ] @ ops "b" @ [ "metrics" ]
  in
  let out =
    with_temp_file ".in" (String.concat "\n" lines ^ "\n") @@ fun input ->
    with_temp_file ".out" "" @@ fun output ->
    In_channel.with_open_bin input (fun ic ->
        Out_channel.with_open_bin output (fun oc ->
            Cluster_worker.run ~worker_id:0 ic oc));
    In_channel.with_open_bin output In_channel.input_all
  in
  let replies = String.split_on_char '\n' (String.trim out) in
  let last = List.nth replies (List.length lines - 1) in
  let text =
    match Njson.parse_flat last with
    | Ok fields -> Option.get (Njson.field_string fields "metrics")
    | Error e -> Alcotest.fail e
  in
  (* the parts, fed the same lines standalone *)
  let eng = Engine.create () in
  List.iteri
    (fun i line ->
      match Request.parse_spec line with
      | Ok spec -> ignore (Engine.solve_path eng ~id:(i + 1) spec)
      | Error e -> Alcotest.fail e)
    serve;
  let session sid =
    let srv = Dyn_serve.create (Dyn.create (Graph_io.load graph)) in
    List.iter (fun l -> ignore (Dyn_serve.handle srv l)) (ops sid);
    Dyn_serve.telemetry srv
  in
  let parts = [ Engine.telemetry eng; session "a"; session "b" ] in
  Engine.shutdown eng;
  let samples = String.split_on_char '\n' text in
  let m =
    match Metrics.of_prometheus text with Ok m -> m | Error e -> Alcotest.fail e
  in
  (* the serve lines are Auto requests, which Newton's descent answers *)
  List.iter
    (fun (r : Telemetry.row) ->
      let name = Telemetry.instantiate r.name "newton" in
      let ms =
        match r.kind with
        | Telemetry.Ms | Telemetry.Per_alg Telemetry.Ms -> true
        | _ -> false
      in
      let read m =
        if ms then Metrics.hist_count (Metrics.histogram m name)
        else Metrics.counter_value (Metrics.counter m name)
      in
      let sample = if ms then name ^ "_count " else name ^ " " in
      Alcotest.(check int)
        (name ^ " listed once") 1
        (List.length (List.filter (String.starts_with ~prefix:sample) samples));
      Alcotest.(check int)
        (name ^ " is the sum of the parts")
        (List.fold_left
           (fun acc tel -> acc + read (Telemetry.snapshot tel))
           0 parts)
        (read m))
    Telemetry.table

let suite =
  [
    Alcotest.test_case "shard: deterministic" `Quick test_assign_deterministic;
    Alcotest.test_case "shard: in range" `Quick test_assign_range;
    Alcotest.test_case "shard: balanced" `Quick test_assign_balance;
    Alcotest.test_case "shard: skips down workers" `Quick
      test_down_worker_excluded;
    Alcotest.test_case "shard: all down" `Quick test_all_down;
    Alcotest.test_case "shard: string keys" `Quick test_assign_string;
    Alcotest.test_case "prometheus: round-trip" `Quick
      test_prometheus_roundtrip;
    Alcotest.test_case "prometheus: shard merge" `Quick
      test_prometheus_merge_shards;
    Alcotest.test_case "prometheus: rejects garbage" `Quick
      test_prometheus_parse_errors;
    Alcotest.test_case "lru: shrink evicts lru-first" `Quick
      test_lru_resize_shrink_evicts_lru;
    Alcotest.test_case "lru: grow, disable, re-enable" `Quick
      test_lru_resize_grow_and_disable;
    Alcotest.test_case "worker exposition: every row, summed" `Quick
      test_worker_exposition_sums_parts;
  ]
  @ Helpers.qtests [ qcheck_minimal_reshuffle ]
