(* The end-to-end benchmark: one workload per run, its inputs generated
   from --seed, the real ocr front-end driven over its pipes with
   tracing off (--trace 0, the end-to-end metrics), or the same request
   sequence replayed in-process under the tracer (--trace 1, the
   per-layer metrics).  Every reply is checked against an independent
   reference.  The last line of stdout is the JSON result.

     dune exec bench/e2e/main.exe -- --workload serve-hot --seed 1 --seconds 15
     dune exec bench/e2e/main.exe -- --compare a1.json a2.json -- b1.json b2.json

   See bench/e2e/README.md for the workloads and metrics. *)

let setups = 5

(* ------------------------------------------------------------------ *)
(* the end-to-end run (--trace 0) *)

(* Throughput and median latency of the timed pass, each the median
   over its one-second windows: on a shared host a slow spell of a few
   seconds then moves neither.  The p99 pools the whole pass, since a
   window holds too few samples for it. *)
let windowed (p : Drive.pass) =
  let lat = p.Drive.latency_ms in
  let n = int_of_float p.Drive.elapsed_s in
  if n < 3 then
    (float_of_int (Quant.count lat) /. p.Drive.elapsed_s, Quant.percentile lat 0.5)
  else begin
    let windows = Array.init n (fun _ -> Quant.samples ()) in
    for i = 0 to Quant.count lat - 1 do
      let w = int_of_float (Quant.get p.Drive.done_s i) in
      if w < n then Quant.add windows.(w) (Quant.get lat i)
    done;
    let ws = Array.to_list windows in
    ( Quant.median_list (List.map (fun w -> float_of_int (Quant.count w)) ws),
      Quant.median_list
        (List.filter_map
           (fun w -> if Quant.count w > 0 then Some (Quant.percentile w 0.5) else None)
           ws) )
  end

(* Set-up, from spawning the front-end to the last warm-up reply, is
   repeated until at least [setups] of them and a second of them have
   passed, so that a cheap set-up is sampled often enough for a steady
   median; the last front-end serves the timed pass. *)
let e2e ~exe ~seconds w (inputs : Corpus.t) =
  let warm_reqs, timed_reqs = Frontend.wire inputs in
  let rec setup times =
    let p, warm, t = Frontend.start ~exe w inputs warm_reqs in
    let times = t :: times in
    if List.length times < setups || List.fold_left ( +. ) 0.0 times < 1.0 then begin
      Drive.stop p;
      setup times
    end
    else (p, warm, times)
  in
  let p, warm, setup_times = setup [] in
  let deadline_ns = Obs.now_ns () + (seconds * 1_000_000_000) in
  let timed =
    Frontend.run_pass p w ~deadline_ns ~first_id:(Array.length warm_reqs + 1) timed_reqs
  in
  let pids =
    if w = Corpus.Cluster_mix then Drive.cluster_pids p ~workers:Corpus.cluster_workers
    else [ p.Drive.pid ]
  in
  let rss = List.fold_left (fun acc pid -> acc +. Drive.peak_rss_mb pid) 0.0 pids in
  Drive.stop p;
  let failed, errors =
    match inputs with
    | Corpus.Serve s -> Frontend.check_serve (Corpus.oracle ()) s ~warm ~timed
    | Corpus.Stream s -> Frontend.check_stream s ~warm ~timed
  in
  let lat = timed.Drive.latency_ms in
  let rate, p50 = windowed timed in
  ( Quant.count lat,
    failed,
    errors,
    [
      ("req_per_s", rate, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_p99_ms", Quant.percentile lat 0.99, "ms");
      ("setup_s", Quant.median_list setup_times, "s");
      ("peak_rss_mb", rss, "MB");
    ] )

(* ------------------------------------------------------------------ *)
(* output *)

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.json_string name)
           (Njson.float_lit v) (Obs.json_string unit))
       metrics)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let inputs_root = "_bench_e2e"

let run ~exe ~name ~seed ~seconds ~trace ~trace_dir ~json_out =
  let w =
    match List.assoc_opt name Corpus.workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected one of: %s)\n" name
        (String.concat ", " (List.map fst Corpus.workloads));
      exit 2
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "ocr binary not found at %s (build it, or pass --ocr)\n" exe;
    exit 2
  end;
  if not (Sys.file_exists inputs_root) then Sys.mkdir inputs_root 0o755;
  let dir = Filename.concat inputs_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let attempted, failed, errors, metrics =
    Fun.protect
      ~finally:(fun () ->
        Drive.kill_all ();
        rm_rf dir;
        if Sys.readdir inputs_root = [||] then Sys.rmdir inputs_root)
      (fun () ->
        let t0 = Obs.now_ns () in
        let inputs = Corpus.generate w ~seed ~seconds ~dir in
        let gen_s = Frontend.secs_since t0 in
        if trace then Replay.run ~exe ~seconds ~gen_s ~trace_dir ~dir w inputs
        else e2e ~exe ~seconds w inputs)
  in
  List.iteri (fun i e -> if i < 10 then prerr_endline ("WRONG: " ^ e)) errors;
  let correct = errors = [] in
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %14.4f %s\n" n v u) metrics;
  let body =
    Printf.sprintf "\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}"
      correct attempted failed (metrics_json metrics)
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"trace\": %b, %s}\n"
            (Obs.json_string name) seed trace body))
    json_out;
  print_endline ("{" ^ body ^ "}");
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let trace_dir = ref None and json_out = ref None in
  let exe = ref "_build/install/default/bin/ocr" in
  let compare = ref None in
  let args =
    [
      ("--workload", Arg.Set_string workload,
       "NAME serve-hot, serve-cold, stream-edit or cluster-mix");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "S length of the timed pass");
      ("--trace", Arg.Set_int trace,
       "0|1 0: end-to-end metrics; 1: per-layer metrics from a traced replay");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d),
       "DIR keep the traced run's trace files in DIR");
      ("--json", Arg.String (fun f -> json_out := Some f),
       "FILE also write the result, with workload and seed, to FILE");
      ("--ocr", Arg.Set_string exe, "PATH the ocr binary under test");
      ("--compare", Arg.Rest_all (fun rest -> compare := Some rest),
       "A.json ... -- B.json ... compare two sets of --json results");
    ]
  in
  Arg.parse (Arg.align args)
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "ocr end-to-end benchmark";
  match !compare with
  | Some files -> exit (Compare.run files)
  | None ->
    let usage msg =
      prerr_endline ("ocr bench/e2e: " ^ msg);
      exit 2
    in
    if !workload = "" then usage "--workload is required";
    if !seconds < 1 then usage "--seconds must be >= 1";
    if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
    Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) !trace_dir;
    run ~exe:!exe ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~trace_dir:!trace_dir ~json_out:!json_out
