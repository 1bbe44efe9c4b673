(* ocr — command-line front-end: generate workloads, solve optimum
   cycle mean / cost-to-time ratio problems, inspect graphs. *)

open Cmdliner

(* ----------------------------------------------------------------- *)
(* shared arguments                                                   *)
(* ----------------------------------------------------------------- *)

let graph_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"GRAPH" ~doc:"Input graph file (p/a line format).")

let algorithm_arg =
  let parse s =
    match Registry.of_name s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown algorithm %S (expected one of: %s)" s
             (String.concat ", " (List.map Registry.name Registry.all))))
  in
  let print ppf a = Format.pp_print_string ppf (Registry.name a) in
  Arg.(
    value
    & opt (conv (parse, print)) Registry.Howard
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:
          "Algorithm: burns, ko, yto, howard, ho, karp, dg, lawler, karp2, \
           oa1, oa2.")

let objective_arg =
  Arg.(
    value
    & opt (enum [ ("min", Solver.Minimize); ("max", Solver.Maximize) ])
        Solver.Minimize
    & info [ "o"; "objective" ] ~docv:"OBJ" ~doc:"min or max.")

let problem_arg =
  Arg.(
    value
    & opt (enum [ ("mean", Solver.Cycle_mean); ("ratio", Solver.Cycle_ratio) ])
        Solver.Cycle_mean
    & info [ "p"; "problem" ] ~docv:"PROBLEM"
        ~doc:"mean (cycle mean) or ratio (cost-to-time ratio).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker parallelism: N-1 domains plus the driving thread.")

let check_jobs jobs =
  if jobs < 1 then begin
    prerr_endline "ocr: --jobs must be >= 1";
    exit 1
  end

(* an input the library rejects is a one-line diagnostic and exit 1,
   never an uncaught exception *)
let die msg =
  prerr_endline ("ocr: " ^ msg);
  exit 1

(* .gr files use the DIMACS shortest-path format; anything else the
   native p/a format — the dispatch lives in Graph_io.load so every
   front-end (and the cluster workers) agrees on it *)
let load_graph path =
  match Graph_io.load path with
  | g -> g
  | exception (Sys_error msg | Failure msg) -> die msg

let emit output g =
  match output with
  | None -> print_string (Graph_io.to_string g)
  | Some path ->
    Graph_io.write_file path g;
    Printf.printf "wrote %d nodes, %d arcs to %s\n" (Digraph.n g)
      (Digraph.m g) path

(* ----------------------------------------------------------------- *)
(* gen                                                                *)
(* ----------------------------------------------------------------- *)

let gen_sprand =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let m = Arg.(required & pos 1 (some int) None & info [] ~docv:"M") in
  let transits =
    Arg.(
      value
      & opt (pair ~sep:',' int int) (1, 1)
      & info [ "transits" ] ~docv:"LO,HI"
          ~doc:"Transit-time range (default 1,1 — a pure mean instance).")
  in
  let run n m seed transits output =
    emit output (Sprand.generate ~seed ~transits ~n ~m ())
  in
  Cmd.v
    (Cmd.info "sprand" ~doc:"SPRAND random graph (Hamiltonian cycle + random arcs).")
    Term.(const run $ n $ m $ seed_arg $ transits $ output_arg)

let gen_circuit =
  let name_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Benchmark name (s27 … s38584) or 'list' to enumerate.")
  in
  let run name seed output =
    if name = "list" then
      List.iter
        (fun (nm, r) -> Printf.printf "%-8s %5d registers\n" nm r)
        Circuit.benchmark_suite
    else
      try emit output (Circuit.benchmark ~seed name)
      with Not_found ->
        prerr_endline ("unknown circuit " ^ name);
        exit 1
  in
  Cmd.v
    (Cmd.info "circuit" ~doc:"Synthetic sequential-circuit benchmark stand-in.")
    Term.(const run $ name_arg $ seed_arg $ output_arg)

let gen_ring =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"N") in
  let run n output = emit output (Families.ring n) in
  Cmd.v (Cmd.info "ring" ~doc:"Single directed cycle.")
    Term.(const run $ n $ output_arg)

let gen_cmd =
  Cmd.group (Cmd.info "gen" ~doc:"Generate workload graphs.")
    [ gen_sprand; gen_circuit; gen_ring ]

(* ----------------------------------------------------------------- *)
(* solve                                                              *)
(* ----------------------------------------------------------------- *)

let solve_cmd =
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Certify the result exactly.")
  in
  let show_stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print operation counts.")
  in
  let show_cycle =
    Arg.(value & flag & info [ "cycle" ] ~doc:"Print the witness cycle arcs.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Abort after MS milliseconds of wall time; exits 5 with a \
             timeout line (and the best partial bound, if any).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record tracing spans during the solve and write them to FILE \
             as Chrome trace-event JSON (open in Perfetto or \
             about://tracing).")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Also print the answer as an exact rational: a \
             $(b,lambda_num=)/$(b,lambda_den=) line, recomputed from the \
             witness cycle's integer weight and transit sums and \
             cross-checked against the solver's λ (see docs/EXACT.md).")
  in
  let run file algorithm objective problem verify show_stats show_cycle
      deadline_ms jobs trace exact =
    check_jobs jobs;
    let g = load_graph file in
    (match trace with
    | Some _ ->
      Trace.configure ();
      Obs.enable ()
    | None -> ());
    let finish_trace () =
      Option.iter (fun path -> Trace.write_chrome_json path) trace
    in
    let budget =
      Option.map
        (fun ms ->
          Budget.create ~now:Unix.gettimeofday
            ~deadline_at:(Unix.gettimeofday () +. (ms /. 1000.0))
            ())
        deadline_ms
    in
    match Solver.solve ~objective ~problem ?budget ~jobs ~algorithm g with
    | exception Invalid_argument msg -> die msg
    | exception Solver.Deadline_exceeded { partial } ->
      finish_trace ();
      (match partial with
      | None -> print_endline "timeout: deadline exceeded"
      | Some r ->
        Printf.printf "timeout: deadline exceeded (best partial lambda = %s)\n"
          (Ratio.to_string r.Solver.lambda));
      exit 5
    | None ->
      finish_trace ();
      print_endline "acyclic graph: no cycle to optimize";
      exit 2
    | Some r ->
      finish_trace ();
      Printf.printf "lambda = %s (%.6f)\n"
        (Ratio.to_string r.Solver.lambda)
        (Ratio.to_float r.Solver.lambda);
      if exact then begin
        match
          Verify.rational_certificate ~problem g r.Solver.lambda r.Solver.cycle
        with
        | Ok cert ->
          Printf.printf "lambda_num=%d lambda_den=%d\n" (Ratio.num cert)
            (Ratio.den cert)
        | Error e ->
          Printf.printf "certificate FAILED: %s\n" e;
          exit 3
      end;
      if show_cycle then
        Printf.printf "cycle: %s\n"
          (String.concat " "
             (List.map
                (fun a ->
                  Printf.sprintf "%d->%d" (Digraph.src g a) (Digraph.dst g a))
                r.Solver.cycle));
      if show_stats then begin
        Format.printf "stats: %a@." Stats.pp r.Solver.stats;
        (* heap-based algorithms (ko, yto, oa2): break the aggregate
           heap-op count of Stats.pp down by operation, the comparison
           currency of the study's §4.2 *)
        let h = r.Solver.stats.Stats.heap in
        if Heap_stats.total h > 0 then
          Printf.printf
            "heap ops: inserts=%d extract_mins=%d decrease_keys=%d \
             deletes=%d melds=%d total=%d\n"
            h.Heap_stats.inserts h.Heap_stats.extract_mins
            h.Heap_stats.decrease_keys h.Heap_stats.deletes h.Heap_stats.melds
            (Heap_stats.total h)
      end;
      if verify then begin
        match Verify.certify_report ~objective ~problem g r with
        | Ok () -> print_endline "certificate: OK"
        | Error e ->
          Printf.printf "certificate FAILED: %s\n" e;
          exit 3
      end
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Compute the optimum cycle mean or cost-to-time ratio of a graph.")
    Term.(
      const run $ graph_file_arg $ algorithm_arg $ objective_arg $ problem_arg
      $ verify $ show_stats $ show_cycle $ deadline_ms $ jobs_arg $ trace
      $ exact)

(* ----------------------------------------------------------------- *)
(* info                                                               *)
(* ----------------------------------------------------------------- *)

let info_cmd =
  let run file =
    let g = load_graph file in
    let scc = Scc.compute g in
    let cyclic = List.length (Scc.nontrivial_components g scc) in
    Printf.printf "nodes: %d\narcs: %d\n" (Digraph.n g) (Digraph.m g);
    if Digraph.m g > 0 then
      Printf.printf "weights: [%d, %d]\ntotal transit: %d\n"
        (Digraph.min_weight g) (Digraph.max_weight g) (Digraph.total_transit g);
    Printf.printf "strongly connected components: %d (%d cyclic)\n"
      scc.Scc.count cyclic;
    Printf.printf "strongly connected: %b\n" (Traversal.is_strongly_connected g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print basic graph statistics.")
    Term.(const run $ graph_file_arg)

(* ----------------------------------------------------------------- *)
(* critical                                                           *)
(* ----------------------------------------------------------------- *)

let critical_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz with the critical arcs highlighted.")
  in
  let run file problem dot =
    let g = load_graph file in
    let objective = Solver.Minimize in
    match Solver.solve ~objective ~problem ~algorithm:Registry.Howard g with
    | exception Invalid_argument msg -> die msg
    | None ->
      print_endline "acyclic graph";
      exit 2
    | Some r ->
      let arcs =
        Critical.critical_arcs ~den:(Critical.den problem g) g r.Solver.lambda
      in
      if dot then print_string (Graph_io.to_dot ~highlight:arcs g)
      else begin
        Printf.printf "lambda = %s\ncritical arcs (%d):\n"
          (Ratio.to_string r.Solver.lambda)
          (List.length arcs);
        List.iter
          (fun a ->
            Printf.printf "  #%d: %d -> %d (w=%d, t=%d)\n" a (Digraph.src g a)
              (Digraph.dst g a) (Digraph.weight g a) (Digraph.transit g a))
          arcs
      end
  in
  Cmd.v
    (Cmd.info "critical"
       ~doc:"Compute the critical subgraph (arcs on optimum cycles).")
    Term.(const run $ graph_file_arg $ problem_arg $ dot)

(* ----------------------------------------------------------------- *)
(* batch / serve (the ocr_engine front-ends)                          *)
(* ----------------------------------------------------------------- *)

let cache_size_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-size" ] ~docv:"K"
        ~doc:
          "LRU result-cache capacity in entries; 0 disables caching.  On \
           $(b,serve) and $(b,cluster) the same capacity also bounds the \
           remembered file fingerprints that let a cache hit skip reading \
           its file.")

let wall_arg =
  Arg.(
    value & flag
    & info [ "wall" ]
        ~doc:"Append per-request wall times (nondeterministic) to responses.")

let write_telemetry tel csv json =
  let dump path contents =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  in
  Option.iter (fun p -> dump p (Telemetry.to_csv tel)) csv;
  Option.iter (fun p -> dump p (Telemetry.to_json tel)) json

let batch_cmd =
  let reqfile =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUESTS"
          ~doc:
            "Request file: one request per line, \
             $(i,graph-file [key=value ...]); '-' reads stdin.  Keys: \
             problem=mean|ratio, objective=min|max, algorithm=auto|<name>, \
             deadline-ms=<float>, verify=true|false.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-csv" ] ~docv:"FILE" ~doc:"Write telemetry as CSV.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-json" ] ~docv:"FILE" ~doc:"Write telemetry as JSON.")
  in
  let run reqfile jobs cache_size wall csv json =
    check_jobs jobs;
    let lines =
      if reqfile = "-" then (
        let acc = ref [] in
        (try
           while true do
             acc := input_line stdin :: !acc
           done
         with End_of_file -> ());
        List.rev !acc)
      else
        String.split_on_char '\n'
          (let ic = open_in reqfile in
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> really_input_string ic (in_channel_length ic)))
    in
    let reqs =
      lines
      |> List.map String.trim
      |> List.filter (fun line -> line <> "" && line.[0] <> '#')
      |> List.mapi (fun i line ->
             match Request.parse_spec line with
             | Error msg ->
               Printf.eprintf "request %d: %s\n" (i + 1) msg;
               exit 1
             | Ok spec -> (
               match Graph_io.load spec.Request.path with
               | exception (Sys_error e | Failure e) ->
                 Printf.eprintf "request %d: %s\n" (i + 1) e;
                 exit 1
               | g -> Request.make ~id:(i + 1) ~graph:g spec))
    in
    let eng = Engine.create ~jobs ~cache_size () in
    Fun.protect
      ~finally:(fun () -> Engine.shutdown eng)
      (fun () ->
        let responses = Engine.run_batch eng reqs in
        List.iter (fun r -> print_endline (Engine.response_line ~wall r)) responses;
        Serve_loop.print_telemetry eng stdout;
        write_telemetry (Engine.telemetry eng) csv json)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a batch of requests in parallel with result caching; \
          responses come back in request order, byte-identical across \
          $(b,--jobs) settings.")
    Term.(
      const run $ reqfile $ jobs_arg $ cache_size_arg $ wall_arg $ csv $ json)

let serve_cmd =
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write Prometheus text-format metrics (request counters, \
             cache hits/misses, solve-latency histogram, pool health) to \
             FILE on exit.  The 'metrics' protocol line prints the same \
             exposition to stdout at any point of the session.")
  in
  let run jobs cache_size wall metrics =
    check_jobs jobs;
    let eng = Engine.create ~jobs ~cache_size () in
    let dump_metrics () =
      Option.iter
        (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc
                (Metrics.to_prometheus (Engine.metrics_snapshot eng))))
        metrics
    in
    Fun.protect
      ~finally:(fun () ->
        dump_metrics ();
        Engine.shutdown eng)
      (fun () -> Serve_loop.serve ~wall eng stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Line-protocol solve server on stdin/stdout.  Each input line is a \
          request ($(i,graph-file [key=value ...])); responses are emitted \
          as they complete.  'telemetry' prints counters, 'metrics' prints \
          Prometheus text, 'quit' or EOF exits.")
    Term.(const run $ jobs_arg $ cache_size_arg $ wall_arg $ metrics_arg)

(* ----------------------------------------------------------------- *)
(* stream (the ocr_dyn front-end)                                     *)
(* ----------------------------------------------------------------- *)

let stream_cmd =
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"JOURNAL"
          ~doc:
            "Process request lines from JOURNAL instead of stdin, then exit \
             — deterministic reproduction of a recorded session.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append one canonical protocol line per applied update and per \
             query to FILE (an $(b,--replay)able journal).")
  in
  let metrics_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:
            "After every N handled requests, emit one NDJSON metrics \
             snapshot line (counters plus a solve-latency digest) to \
             stdout.")
  in
  let run file problem objective jobs cache_size replay journal metrics_every =
    check_jobs jobs;
    (match metrics_every with
    | Some n when n < 1 ->
      prerr_endline "ocr: --metrics-every must be >= 1";
      exit 1
    | _ -> ());
    let g = load_graph file in
    let session = Dyn.create ~problem ~objective ~jobs g in
    let jout = Option.map open_out journal in
    let log =
      Option.map (fun oc line -> output_string oc (line ^ "\n")) jout
    in
    let srv = Dyn_serve.create ~cache_size ?journal:log session in
    (* one request line -> one response line; malformed lines answer
       {"ok":false,...} and the stream continues *)
    let drain ic = Serve_loop.stream ?metrics_every srv ic stdout in
    Fun.protect
      ~finally:(fun () ->
        Option.iter close_out jout;
        Dyn.close session)
      (fun () ->
        match replay with
        | Some path ->
          let ic = open_in path in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> drain ic)
        | None -> drain stdin)
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Dynamic-session server on stdin/stdout speaking an NDJSON line \
          protocol: one update ($(i,set_weight), $(i,set_transit), \
          $(i,add_arc), $(i,remove_arc)) or $(i,query) per line, answered \
          with epoch, exact lambda and witness.  Queries re-solve only the \
          components the updates dirtied, each from its last optimum; \
          per-epoch structural fingerprints feed an LRU answer \
          cache.  See docs/DYN.md for the protocol.")
    Term.(
      const run $ graph_file_arg $ problem_arg $ objective_arg $ jobs_arg
      $ cache_size_arg $ replay_arg $ journal_arg $ metrics_every_arg)

(* ----------------------------------------------------------------- *)
(* cluster (sharded multi-process serving)                            *)
(* ----------------------------------------------------------------- *)

let cluster_cmd =
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Number of worker processes (each with its own cache and pool).")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Per-worker in-flight bound.  Requests routed to a full worker \
             are shed with req=N file=F status=error msg=\"overloaded\" \
             (session ops: {\"session\":ID,\"ok\":false,\"error\":\"overloaded\"}).")
  in
  let request_timeout_arg =
    Arg.(
      value & opt float 30_000.
      & info [ "request-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Kill and respawn a worker that spends longer than MS on one \
             request (<= 0 disables).")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt float 5_000.
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:"Grace period for in-flight work on shutdown.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the final aggregated Prometheus exposition to FILE on \
             exit.  The 'metrics' protocol line prints the same aggregation \
             to stdout at any point.")
  in
  let trace_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Record a distributed trace of every request: the router and \
             each worker write per-process Chrome trace files \
             (router.json, worker-N.json) into DIR on exit.  Merge them \
             into one timeline with $(b,ocr trace merge).")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one NDJSON line per request to FILE: trace id, worker, \
             shard key, cache hit, queue depth at admission, per-phase \
             milliseconds and status.  An unwritable FILE disables the log \
             (with a note on stderr); the router keeps serving.")
  in
  let run workers jobs cache_size wall queue_depth request_timeout_ms
      drain_timeout_ms metrics_file trace_dir access_log =
    if workers < 1 then begin
      prerr_endline "ocr: --workers must be >= 1";
      exit 1
    end;
    check_jobs jobs;
    let cfg =
      Router.config ~workers ~jobs ~cache_size ~queue_depth
        ~request_timeout_ms ~drain_timeout_ms ~wall ?metrics_file ?trace_dir
        ?access_log ()
    in
    Router.run cfg Unix.stdin stdout
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Sharded multi-process serving on stdin/stdout: a router forks \
          $(b,--workers) shared-nothing worker processes and multiplexes \
          the $(b,serve) and $(b,stream) line protocols across them.  \
          One-shot solve lines are routed by structural graph fingerprint \
          (cache-affine, consistent across worker loss); \
          {\"op\":\"open\",\"session\":ID,\"graph\":FILE,...} opens a sticky \
          dyn session whose subsequent lines carry the \"session\" field.  \
          Crashed workers are respawned and their sessions replayed from \
          the router's update journal; 'status' prints per-worker pids, \
          'metrics' a cluster-wide aggregated exposition.  $(b,--cache-size) \
          is the cluster-total LRU budget, divided across workers.  See \
          docs/CLUSTER.md.")
    Term.(
      const run $ workers_arg $ jobs_arg $ cache_size_arg $ wall_arg
      $ queue_depth_arg $ request_timeout_arg $ drain_timeout_arg
      $ metrics_arg $ trace_dir_arg $ access_log_arg)

(* the hidden worker-side mode the router re-execs; not for humans *)
let cluster_worker_cmd =
  let worker_id_arg =
    Arg.(value & opt int 0 & info [ "worker-id" ] ~docv:"N" ~doc:"Worker index.")
  in
  let worker_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write this worker's trace file on exit.")
  in
  let run worker_id jobs cache_size wall trace_file =
    check_jobs jobs;
    Cluster_worker.run ~wall ~jobs ~cache_size ?trace_file ~worker_id stdin
      stdout
  in
  Cmd.v
    (Cmd.info "cluster-worker" ~docs:Manpage.s_none
       ~doc:"Internal: one cluster worker process (spawned by 'cluster').")
    Term.(
      const run $ worker_id_arg $ jobs_arg $ cache_size_arg $ wall_arg
      $ worker_trace_arg)

(* ----------------------------------------------------------------- *)
(* trace                                                              *)
(* ----------------------------------------------------------------- *)

let trace_cmd =
  let trace_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"Chrome trace-event JSON file (from $(b,ocr solve --trace)).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Print at most N rows (default 10).")
  in
  (* the per-request section only appears when the trace carries the
     router's rt.* phase markers, so plain `ocr solve --trace` output
     summaries are unchanged *)
  let print_attribution contents =
    match Trace_read.attribute contents with
    | Error _ | Ok [] -> ()
    | Ok rows ->
      let ms f = f /. 1000.0 in
      Printf.printf "\nper-request critical path (%d requests):\n"
        (List.length rows);
      Printf.printf "%-8s %12s %12s %12s %12s %12s\n" "trace" "dispatch(ms)"
        "queue(ms)" "solve(ms)" "serial(ms)" "total(ms)";
      List.iter
        (fun r ->
          Printf.printf "%-8d %12.3f %12.3f %12.3f %12.3f %12.3f\n"
            r.Trace_read.rp_trace
            (ms r.Trace_read.rp_dispatch_us)
            (ms r.Trace_read.rp_queue_us)
            (ms r.Trace_read.rp_solve_us)
            (ms r.Trace_read.rp_serialize_us)
            (ms r.Trace_read.rp_total_us))
        rows;
      let totals = List.map (fun r -> r.Trace_read.rp_total_us) rows in
      Printf.printf "total(ms) p50 %.3f  p95 %.3f  p99 %.3f\n"
        (ms (Trace_read.percentile totals 0.50))
        (ms (Trace_read.percentile totals 0.95))
        (ms (Trace_read.percentile totals 0.99))
  in
  let run file top =
    match Trace_read.read_file file with
    | Error msg ->
      Printf.eprintf "ocr: trace summarize: %s\n" msg;
      exit 1
    | Ok contents -> (
      match Trace_read.summarize contents with
      | Error msg ->
        Printf.eprintf "ocr: trace summarize: %s\n" msg;
        exit 1
      | Ok rows ->
        Printf.printf "%-24s %8s %14s %14s\n" "span" "count" "total(ms)"
          "self(ms)";
        List.iteri
          (fun i r ->
            if i < top then
              Printf.printf "%-24s %8d %14.3f %14.3f\n" r.Trace_read.sr_name
                r.Trace_read.sr_count
                (r.Trace_read.sr_total_us /. 1000.0)
                (r.Trace_read.sr_self_us /. 1000.0))
          rows;
        print_attribution contents)
  in
  let summarize =
    Cmd.v
      (Cmd.info "summarize"
         ~doc:
           "Aggregate a trace file's spans by name and print the top spans \
            by self-time (total minus directly nested spans); for traces \
            from a traced $(b,ocr cluster) run, also print per-request \
            critical-path attribution (dispatch/queue/solve/serialize \
            milliseconds per request, with p50/p95/p99 totals).  A \
            malformed file is a structured error and exit 1.")
      Term.(const run $ trace_file $ top)
  in
  let merge_inputs =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:
            "Per-process trace files from one traced cluster run \
             (router.json and worker-N.json).")
  in
  let merge_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the merged trace to FILE (default: stdout).")
  in
  let run_merge files out =
    let inputs =
      List.map
        (fun path ->
          match Trace_read.read_file path with
          | Error msg ->
            Printf.eprintf "ocr: trace merge: %s\n" msg;
            exit 1
          | Ok contents -> (Filename.basename path, contents))
        files
    in
    match Trace_read.merge inputs with
    | Error msg ->
      Printf.eprintf "ocr: trace merge: %s\n" msg;
      exit 1
    | Ok merged -> (
      match out with
      | None -> print_string merged
      | Some path -> (
        try
          let oc = open_out path in
          output_string oc merged;
          close_out oc
        with Sys_error e ->
          Printf.eprintf "ocr: trace merge: %s\n" e;
          exit 1))
  in
  let merge =
    Cmd.v
      (Cmd.info "merge"
         ~doc:
           "Align the per-process trace files of one traced $(b,ocr \
            cluster) run (router.json, worker-N.json from \
            $(b,--trace-dir)) into a single Chrome trace: worker \
            timestamps are shifted onto the router's clock using the \
            recorded handshake offsets, and each request becomes a flow \
            arrow from the router's dispatch to the worker that solved \
            it.  Open the result in Perfetto.")
      Term.(const run_merge $ merge_inputs $ merge_out)
  in
  Cmd.group (Cmd.info "trace" ~doc:"Inspect recorded trace files.")
    [ summarize; merge ]

(* ----------------------------------------------------------------- *)
(* compare                                                            *)
(* ----------------------------------------------------------------- *)

let compare_cmd =
  let run file objective problem =
    let g = load_graph file in
    Printf.printf "%-8s %14s %10s %8s %12s %10s\n" "alg" "lambda" "time(ms)"
      "iter" "relax/arcs" "heap-ops";
    let reference = ref None in
    let disagreements = ref 0 in
    List.iter
      (fun algorithm ->
        let t0 = Unix.gettimeofday () in
        match Solver.solve ~objective ~problem ~algorithm g with
        | exception Invalid_argument msg -> die msg
        | None ->
          print_endline "acyclic graph: no cycle to optimize";
          exit 2
        | Some r ->
          let dt = 1000.0 *. (Unix.gettimeofday () -. t0) in
          (match !reference with
          | None -> reference := Some r.Solver.lambda
          | Some l ->
            if not (Ratio.equal l r.Solver.lambda) then incr disagreements);
          Printf.printf "%-8s %14s %10.2f %8d %12d %10d\n"
            (Registry.display_name algorithm)
            (Ratio.to_string r.Solver.lambda)
            dt r.Solver.stats.Stats.iterations
            (r.Solver.stats.Stats.relaxations + r.Solver.stats.Stats.arcs_visited)
            (Heap_stats.total r.Solver.stats.Stats.heap))
      Registry.all;
    if !disagreements > 0 then begin
      Printf.printf "DISAGREEMENT between algorithms (%d)!\n" !disagreements;
      exit 4
    end
    else print_endline "all algorithms agree"
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run every algorithm of the study on a graph and compare answers, \
          times and operation counts.")
    Term.(const run $ graph_file_arg $ objective_arg $ problem_arg)

let () =
  let doc = "Optimum cycle mean and cost-to-time ratio algorithms (DAC'99 study)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ocr" ~version:"1.0.0" ~doc)
          [
            gen_cmd; solve_cmd; batch_cmd; serve_cmd; stream_cmd; cluster_cmd;
            cluster_worker_cmd; info_cmd; critical_cmd; compare_cmd; trace_cmd;
          ]))
