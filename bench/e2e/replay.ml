(* --trace 1: the per-layer run.  A third of --seconds drives the real
   front-end as the end-to-end run does (the cluster with --trace-dir
   and --access-log on), for the subprocess latency and the replies to
   compare against.  The other two thirds replay the same request
   sequence in-process, through the public functions the front-end
   calls (Request.parse_spec, Graph_io.load, Request.make, Engine.solve,
   Engine.response_line; Dyn_serve.handle per stream line), on two
   stand-ins of the front-end: each request runs untraced on the first,
   then with Obs enabled on the second, where every call sits in a
   bench-owned span and the program's own engine, howard, bf and warm
   spans nest beneath.  Interleaving the two makes a slow spell of the
   host hit both alike, so trace_overhead_pct compares like with like.

   All replies must be byte-identical.  Self times come from
   Trace_read.summarize of the traced stand-in's trace.  Layers without
   a call of their own on the request path (Fingerprint, Scc,
   Stern_brocot, Dyn.fingerprint) are timed in an isolated pass over
   the same inputs; Verify from the oracle's reference checks; the
   cluster's router and worker phases from its access log. *)

(* Every per-layer metric with its unit, in report order.  A layer the
   workload never enters reads 0. *)
let layers =
  [
    ("Request.parse_spec.us_p50", "us");
    ("Graph_io.load.ms_p50", "ms");
    ("Graph_io.load.bytes_per_req", "B");
    ("Graph_io.load.share_pct", "%");
    ("Fingerprint.of_graph.ms_p50", "ms");
    ("Engine.solve.hit_ms_p50", "ms");
    ("Engine.solve.miss_ms_p50", "ms");
    ("Engine.cache_hit_ratio", "ratio");
    ("Engine.response_line.us_p50", "us");
    ("Scc.partition.ms_p50", "ms");
    ("Howard.solve.self_ms_per_req", "ms");
    ("Howard.iterations_per_req", "count");
    ("Bellman_ford.self_ms_per_req", "ms");
    ("Verify.certify.ms_p50", "ms");
    ("Verify.rational_certificate.us_p50", "us");
    ("Stern_brocot.solve.ms_p50", "ms");
    ("Serve_loop.overhead_ms_p50", "ms");
    ("Dyn_serve.handle.update_us_p50", "us");
    ("Dyn_serve.handle.query_ms_p50", "ms");
    ("Dyn_serve.handle.query_ms_p99", "ms");
    ("Dyn_serve.cache_hit_ratio", "ratio");
    ("Dyn.query.resolved_ratio", "ratio");
    ("Dyn.fingerprint.ms_p50", "ms");
    ("Warm.locate.self_ms_per_query", "ms");
    ("Warm.howard.self_ms_per_query", "ms");
    ("Router.dispatch_ms_p50", "ms");
    ("Router.queue_ms_p50", "ms");
    ("Router.queue_ms_p99", "ms");
    ("Router.serialize_ms_p50", "ms");
    ("Router.queue_at_admit_mean", "count");
    ("Cluster_worker.solve_ms_p50", "ms");
    ("Cluster_worker.solve_ms_p99", "ms");
    ("Cluster_worker.cache_hit_ratio", "ratio");
    ("Shard_map.imbalance", "ratio");
    ("trace_overhead_pct", "%");
    ("bench.gen_s", "s");
  ]

let complete values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layers) then invalid_arg ("unknown layer metric " ^ name))
    values;
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name values) ~default:0.0, unit))
    layers

(* ------------------------------------------------------------------ *)
(* spans and samples *)

let span name = Obs.intern ("bench." ^ name)
let sp_request = span "request"
let sp_parse = span "Request.parse_spec"
let sp_load = span "Graph_io.load"
let sp_make = span "Request.make"
let sp_solve = span "Engine.solve"
let sp_render = span "Engine.response_line"
let sp_route = span "Router.solve_key"
let sp_update = span "Dyn_serve.handle.update"
let sp_query = span "Dyn_serve.handle.query"

(* Large enough for a third of a minute of any workload; a wrapped
   ring would silently lose spans, so the run fails instead. *)
let trace_capacity = 1 lsl 20

(* [f ()] inside span [sp], its duration in ns added to [s] *)
let timed sp s f =
  Trace.begin_span sp;
  let t0 = Obs.now_ns () in
  let r = f () in
  Quant.add s (float_of_int (Obs.now_ns () - t0));
  Trace.end_span sp;
  r

let time_ns f =
  let t0 = Obs.now_ns () in
  ignore (f ());
  float_of_int (Obs.now_ns () - t0)

let p50 s = Quant.percentile s 0.50
let ms ns = ns /. 1e6
let us ns = ns /. 1e3
let per k x = x /. float_of_int (max 1 k)

(* The two stand-ins, request by request, for [for_ns] or until the
   sequence ends: replies of the untraced one and of the traced one. *)
let paired ~for_ns ~available ~untraced ~traced =
  Trace.configure ~capacity:trace_capacity ();
  Trace.preallocate ();
  let deadline = Obs.now_ns () + for_ns in
  let plain = ref [] and recorded = ref [] and i = ref 0 in
  while !i < available && Obs.now_ns () < deadline do
    plain := untraced !i :: !plain;
    Obs.enable ();
    recorded := traced !i :: !recorded;
    Obs.disable ();
    incr i
  done;
  (Array.of_list (List.rev !plain), Array.of_list (List.rev !recorded))

(* Writes the traced stand-in's trace as DIR/<workload>.json and
   aggregates it by span name. *)
let finish_tracing ~trace_dir w =
  if Trace.dropped () > 0 then
    failwith (Printf.sprintf "trace ring dropped %d records" (Trace.dropped ()));
  let json = Trace.to_chrome_json () in
  Out_channel.with_open_bin
    (Filename.concat trace_dir (Corpus.workload_name w ^ ".json"))
    (fun oc -> output_string oc json);
  match Trace_read.summarize json with
  | Ok rows -> rows
  | Error e -> failwith ("trace summary: " ^ e)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let self_us rows prefix =
  List.fold_left
    (fun acc r -> if starts_with prefix r.Trace_read.sr_name then acc +. r.Trace_read.sr_self_us else acc)
    0.0 rows

let span_count rows name =
  List.fold_left
    (fun acc r -> if r.Trace_read.sr_name = name then acc + r.Trace_read.sr_count else acc)
    0 rows

(* the layers every workload reaches through the solver kernel *)
let kernel_layers rows k =
  [
    ("Howard.solve.self_ms_per_req", per k (self_us rows "howard.") /. 1e3);
    ("Howard.iterations_per_req", per k (float_of_int (span_count rows "howard.iteration")));
    ("Bellman_ford.self_ms_per_req", per k (self_us rows "bf.") /. 1e3);
  ]

let identical what a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then []
    else if a.(i) <> b.(i) then
      [ Printf.sprintf "%s reply %d differs: %S vs %S" what i a.(i) b.(i) ]
    else go (i + 1)
  in
  go 0

(* The protocol, pipe and process boundary: the front-end's p50 minus
   the in-process p50, over the requests both completed. *)
let overhead_ms (sub : Drive.pass) inproc_ns =
  let n = min (Quant.count sub.Drive.latency_ms) (Quant.count inproc_ns) in
  p50 (Quant.prefix sub.Drive.latency_ms n) -. ms (p50 (Quant.prefix inproc_ns n))

let concat a = Array.of_list (List.concat (Array.to_list a))

(* ------------------------------------------------------------------ *)
(* serve and cluster *)

type calls = {
  request : Quant.samples;
  parse : Quant.samples;
  load : Quant.samples;
  make : Quant.samples;
  hit : Quant.samples;  (** Engine.solve served from the cache *)
  miss : Quant.samples;
  render : Quant.samples;
  route : Quant.samples;
  mutable bytes : int;
}

let calls () =
  let s = Quant.samples in
  { request = s (); parse = s (); load = s (); make = s (); hit = s (); miss = s ();
    render = s (); route = s (); bytes = 0 }

(* The in-process stand-in for the front-end: one engine per worker
   with the front-end's cache budget (the cluster divides 256 entries
   over its workers), requests routed by graph fingerprint through the
   router's Shard_map, worker-local request ids rewritten to the
   router's. *)
type server = {
  engines : Engine.t array;
  map : Shard_map.t;
  local : int array;
  keys : (string, int) Hashtbl.t;  (** the router's path -> shard key *)
  cluster : bool;
  mutable gid : int;
}

let server w =
  let workers = if w = Corpus.Cluster_mix then Corpus.cluster_workers else 1 in
  {
    engines = Array.init workers (fun _ -> Engine.create ~jobs:1 ~cache_size:(256 / workers) ());
    map = Shard_map.create ~workers;
    local = Array.make workers 0;
    keys = Hashtbl.create 64;
    cluster = w = Corpus.Cluster_mix;
    gid = 0;
  }

let rewrite_req gid line =
  let n = String.length line in
  let i = ref 4 in
  while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
    incr i
  done;
  "req=" ^ string_of_int gid ^ String.sub line !i (n - !i)

let solve_key srv c path =
  timed sp_route c.route (fun () ->
      match Hashtbl.find_opt srv.keys path with
      | Some k -> k
      | None ->
        let k = Fingerprint.hash (Fingerprint.of_graph (Graph_io.load path)) in
        Hashtbl.replace srv.keys path k;
        k)

let serve_one srv c line =
  let t0 = Obs.now_ns () in
  Trace.begin_span sp_request;
  let spec =
    match timed sp_parse c.parse (fun () -> Request.parse_spec line) with
    | Ok spec -> spec
    | Error e -> failwith ("generated request does not parse: " ^ e)
  in
  let path = spec.Request.path in
  srv.gid <- srv.gid + 1;
  let wi =
    if srv.cluster then Option.get (Shard_map.assign srv.map (solve_key srv c path)) else 0
  in
  srv.local.(wi) <- srv.local.(wi) + 1;
  c.bytes <- c.bytes + (Unix.stat path).Unix.st_size;
  let g = timed sp_load c.load (fun () -> Graph_io.load path) in
  let req = timed sp_make c.make (fun () -> Request.make ~id:srv.local.(wi) ~graph:g spec) in
  Trace.begin_span sp_solve;
  let t1 = Obs.now_ns () in
  let resp = Engine.solve srv.engines.(wi) req in
  let dt = float_of_int (Obs.now_ns () - t1) in
  Trace.end_span sp_solve;
  (match resp.Engine.outcome with
  | Engine.Solved { cached = true; _ } | Engine.Approximate { cached = true; _ } ->
    Quant.add c.hit dt
  | _ -> Quant.add c.miss dt);
  let reply = timed sp_render c.render (fun () -> Engine.response_line resp) in
  Trace.end_span sp_request;
  Quant.add c.request (float_of_int (Obs.now_ns () - t0));
  if srv.cluster then rewrite_req srv.gid reply else reply

(* The serve stand-ins after their warm-ups (untraced, unmeasured):
   warm-up replies, timed replies and call samples of each. *)
let serve_pair w (s : Corpus.serve_inputs) ~for_ns =
  let u = server w and t = server w in
  let warm srv =
    Array.of_list (List.map (fun r -> serve_one srv (calls ()) (Corpus.line r)) s.Corpus.warmup)
  in
  let warm_u = warm u and warm_t = warm t in
  let cu = calls () and ct = calls () in
  let run srv c i = serve_one srv c (Corpus.line s.Corpus.timed.(i)) in
  let plain, traced =
    paired ~for_ns ~available:(Array.length s.Corpus.timed) ~untraced:(run u cu)
      ~traced:(run t ct)
  in
  Array.iter Engine.shutdown u.engines;
  Array.iter Engine.shutdown t.engines;
  ((warm_u, plain, cu), (warm_t, traced, ct))

(* The layers with no call of their own on the serve path, timed on
   the files of the first [k] requests: the fingerprint, the SCC
   partition (as the engine computes it) and the Stern–Brocot lane of
   the algorithm=exact requests. *)
let serve_isolated (s : Corpus.serve_inputs) k =
  let fp = Quant.samples () and part = Quant.samples () and sb = Quant.samples () in
  let seen = Hashtbl.create 64 in
  for i = 0 to k - 1 do
    let r = s.Corpus.timed.(i) in
    let path = r.Corpus.file.Corpus.path in
    let fresh = (not (Hashtbl.mem seen path)) && Hashtbl.length seen < 300 in
    let lane = r.Corpus.exact_lane && Quant.count sb < 100 in
    if fresh || lane then begin
      let g = Graph_io.load path in
      if fresh then begin
        Hashtbl.add seen path ();
        Quant.add fp (time_ns (fun () -> Fingerprint.of_graph g));
        Quant.add part (time_ns (fun () -> Scc.partition g (Scc.compute g)))
      end;
      if lane then begin
        let g_min =
          match r.Corpus.objective with
          | Solver.Minimize -> g
          | Solver.Maximize -> Digraph.negate_weights g
        in
        let run =
          match r.Corpus.problem with
          | Solver.Cycle_mean -> Stern_brocot.minimum_cycle_mean
          | Solver.Cycle_ratio -> Stern_brocot.minimum_cycle_ratio
        in
        let subs = Scc.partition g_min (Scc.compute g_min) in
        Quant.add sb
          (time_ns (fun () ->
               Array.iter (fun sp -> ignore (run sp.Scc.sub)) subs))
      end
    end
  done;
  [
    ("Fingerprint.of_graph.ms_p50", ms (p50 fp));
    ("Scc.partition.ms_p50", ms (p50 part));
    ("Stern_brocot.solve.ms_p50", ms (p50 sb));
  ]

(* Router and worker phases of the timed requests, from the cluster's
   access log; every request there must also be attributed by
   Trace_read over the merged per-process traces. *)
let cluster_layers cdir ~warmup =
  let lines =
    In_channel.with_open_text (Filename.concat cdir "access.ndjson") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match Njson.parse_flat l with
           | Ok f -> f
           | Error e -> failwith ("access log: " ^ e))
  in
  let ok = List.filter (fun f -> Njson.field_string f "status" = Some "ok") lines in
  let timed = List.filter (fun f -> Option.get (Njson.field_int f "req") > warmup) ok in
  let col name =
    let s = Quant.samples () in
    List.iter (fun f -> Quant.add s (Option.get (Njson.field_float f name))) timed;
    s
  in
  let n = List.length timed in
  let per_worker = Array.make Corpus.cluster_workers 0 in
  List.iter
    (fun f ->
      let w = Option.get (Njson.field_int f "worker") in
      per_worker.(w) <- per_worker.(w) + 1)
    timed;
  let hits = List.length (List.filter (fun f -> Njson.field f "cache" = Some (Njson.Bool true)) timed) in
  let queued = List.fold_left (fun acc f -> acc + Option.get (Njson.field_int f "queue")) 0 timed in
  let traces =
    Sys.readdir cdir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (fun f ->
           match Trace_read.read_file (Filename.concat cdir f) with
           | Ok text -> (f, text)
           | Error e -> failwith e)
  in
  let attributed =
    match Result.bind (Trace_read.merge traces) Trace_read.attribute with
    | Ok rows -> List.length rows
    | Error e -> failwith ("cluster trace: " ^ e)
  in
  let errors =
    if attributed = List.length ok then []
    else
      [ Printf.sprintf "cluster trace attributes %d requests, the access log has %d"
          attributed (List.length ok) ]
  in
  let dispatch = col "dispatch_ms" and queue = col "queue_ms" in
  let solve = col "solve_ms" and serialize = col "serialize_ms" in
  ( [
      ("Router.dispatch_ms_p50", p50 dispatch);
      ("Router.queue_ms_p50", p50 queue);
      ("Router.queue_ms_p99", Quant.percentile queue 0.99);
      ("Router.serialize_ms_p50", p50 serialize);
      ("Router.queue_at_admit_mean", per n (float_of_int queued));
      ("Cluster_worker.solve_ms_p50", p50 solve);
      ("Cluster_worker.solve_ms_p99", Quant.percentile solve 0.99);
      ("Cluster_worker.cache_hit_ratio", per n (float_of_int hits));
      ( "Shard_map.imbalance",
        float_of_int (Array.fold_left max 0 per_worker)
        /. float_of_int (max 1 (Array.fold_left min max_int per_worker)) );
    ],
    errors )

let serve_run ~exe ~phase_ns ~dir ~trace_dir w (s : Corpus.serve_inputs) inputs =
  let warm_reqs, timed_reqs = Frontend.wire inputs in
  let cdir = Filename.concat dir "cluster" in
  let extra =
    if w = Corpus.Cluster_mix then begin
      Sys.mkdir cdir 0o755;
      [ "--trace-dir"; cdir; "--access-log"; Filename.concat cdir "access.ndjson" ]
    end
    else []
  in
  let p, warm, _ = Frontend.start ~exe ~extra w inputs warm_reqs in
  let sub =
    Frontend.run_pass p w ~deadline_ns:(Obs.now_ns () + phase_ns)
      ~first_id:(Array.length warm_reqs + 1) timed_reqs
  in
  Drive.stop p;
  let o = Corpus.oracle () in
  let failed, errors = Frontend.check_serve o s ~warm ~timed:sub in
  let (warm1, plain, c1), (warm2, traced, c2) = serve_pair w s ~for_ns:(2 * phase_ns) in
  let k = Array.length plain in
  let rows = finish_tracing ~trace_dir w in
  (* in-process replies past the subprocess's still face the oracle *)
  let nw = Array.length warm1 and nsub = Array.length sub.Drive.replies in
  Corpus.prepare o (Array.to_list (Array.sub s.Corpus.timed 0 k));
  let extra_errors =
    List.concat
      [
        identical "warm-up (front-end vs in-process)" (concat warm.Drive.replies) warm1;
        identical "timed (front-end vs in-process)" (concat sub.Drive.replies) plain;
        identical "warm-up (untraced vs traced)" warm1 warm2;
        identical "timed (untraced vs traced)" plain traced;
        List.filter_map
          (fun i ->
            if i < nsub then None
            else
              match Corpus.check o s.Corpus.timed.(i) ~id:(nw + i + 1) plain.(i) with
              | Ok () -> None
              | Error e -> Some e)
          (List.init k Fun.id);
      ]
  in
  let cluster, cluster_errors =
    if w = Corpus.Cluster_mix then cluster_layers cdir ~warmup:(Array.length warm_reqs)
    else ([], [])
  in
  let total c = Quant.sum c.request in
  let values =
    [
      ("Request.parse_spec.us_p50", us (p50 c2.parse));
      ("Graph_io.load.ms_p50", ms (p50 c2.load));
      ("Graph_io.load.bytes_per_req", per k (float_of_int c2.bytes));
      ("Graph_io.load.share_pct", 100.0 *. Quant.sum c2.load /. total c2);
      ("Engine.solve.hit_ms_p50", ms (p50 c2.hit));
      ("Engine.solve.miss_ms_p50", ms (p50 c2.miss));
      ("Engine.cache_hit_ratio", per k (float_of_int (Quant.count c2.hit)));
      ("Engine.response_line.us_p50", us (p50 c2.render));
      ("Verify.certify.ms_p50", p50 o.Corpus.certify_ms);
      ("Verify.rational_certificate.us_p50", p50 o.Corpus.rational_us);
      ("Serve_loop.overhead_ms_p50", overhead_ms sub c1.request);
      ("trace_overhead_pct", 100.0 *. ((total c2 /. total c1) -. 1.0));
    ]
    @ kernel_layers rows k @ serve_isolated s k @ cluster
  in
  (nsub, failed, errors @ extra_errors @ cluster_errors, values, o.Corpus.busy_s)

(* ------------------------------------------------------------------ *)
(* stream *)

type stream_calls = {
  s_request : Quant.samples;
  update : Quant.samples;
  query : Quant.samples;
}

let open_session (s : Corpus.stream_inputs) =
  let g = Graph_io.load s.Corpus.circuit.Corpus.path in
  let session = Dyn.create ~problem:Solver.Cycle_mean ~objective:Solver.Maximize ~jobs:1 g in
  (session, Dyn_serve.create ~cache_size:256 session)

let handle srv line =
  match Dyn_serve.handle srv line with
  | `Reply r -> r
  | `Quit -> failwith "stream session quit"

(* The stream stand-ins: after the warm-up query, each step is the
   update line then the query line. *)
let stream_pair (s : Corpus.stream_inputs) lines ~for_ns =
  let session_u, u = open_session s and session_t, t = open_session s in
  let warm_u = handle u Corpus.query_line and warm_t = handle t Corpus.query_line in
  let fresh () = { s_request = Quant.samples (); update = Quant.samples (); query = Quant.samples () } in
  let cu = fresh () and ct = fresh () in
  let step srv c i =
    let t0 = Obs.now_ns () in
    Trace.begin_span sp_request;
    let upd = timed sp_update c.update (fun () -> handle srv lines.(i)) in
    let q = timed sp_query c.query (fun () -> handle srv Corpus.query_line) in
    Trace.end_span sp_request;
    Quant.add c.s_request (float_of_int (Obs.now_ns () - t0));
    [ upd; q ]
  in
  let plain, traced =
    paired ~for_ns ~available:(Array.length lines) ~untraced:(step u cu) ~traced:(step t ct)
  in
  Dyn.close session_u;
  Dyn.close session_t;
  ((warm_u, concat plain, cu), (warm_t, concat traced, ct))

(* Dyn.fingerprint, which the session computes inside a query, timed
   alone after each of the first updates. *)
let fingerprint_isolated (s : Corpus.stream_inputs) k =
  let session, _ = open_session s in
  let fp = Quant.samples () in
  for i = 0 to min k 1000 - 1 do
    Dyn.apply session s.Corpus.steps.(i);
    Quant.add fp (time_ns (fun () -> Dyn.fingerprint session))
  done;
  ("Dyn.fingerprint.ms_p50", ms (p50 fp))

let stream_run ~exe ~phase_ns ~trace_dir w (s : Corpus.stream_inputs) inputs =
  let warm_reqs, timed_reqs = Frontend.wire inputs in
  let p, warm, _ = Frontend.start ~exe w inputs warm_reqs in
  let sub = Frontend.run_pass p w ~deadline_ns:(Obs.now_ns () + phase_ns) ~first_id:1 timed_reqs in
  Drive.stop p;
  let t0 = Obs.now_ns () in
  let failed, errors = Frontend.check_stream s ~warm ~timed:sub in
  let oracle_s = Frontend.secs_since t0 in
  let lines = Array.map Dyn_protocol.render_update s.Corpus.steps in
  let (warm1, plain, c1), (warm2, traced, c2) = stream_pair s lines ~for_ns:(2 * phase_ns) in
  let k = Array.length plain / 2 in
  let rows = finish_tracing ~trace_dir w in
  let queries = List.init k (fun i -> Frontend.json_fields traced.((2 * i) + 1)) in
  let sum_field name =
    List.fold_left
      (fun acc f -> match List.assoc_opt name f with Some (Trace_read.Num x) -> acc +. x | _ -> acc)
      0.0 queries
  in
  let cached =
    List.length (List.filter (fun f -> List.assoc_opt "cached" f = Some (Trace_read.Bool true)) queries)
  in
  let extra_errors =
    List.concat
      [
        identical "warm-up (front-end vs in-process)" (concat warm.Drive.replies) [| warm1 |];
        identical "timed (front-end vs in-process)" (concat sub.Drive.replies) plain;
        identical "warm-up (untraced vs traced)" [| warm1 |] [| warm2 |];
        identical "timed (untraced vs traced)" plain traced;
      ]
  in
  let values =
    [
      ("Dyn_serve.handle.update_us_p50", us (p50 c2.update));
      ("Dyn_serve.handle.query_ms_p50", ms (p50 c2.query));
      ("Dyn_serve.handle.query_ms_p99", ms (Quant.percentile c2.query 0.99));
      ("Dyn_serve.cache_hit_ratio", per k (float_of_int cached));
      ("Dyn.query.resolved_ratio", sum_field "resolved" /. Float.max 1.0 (sum_field "components"));
      ("Warm.locate.self_ms_per_query", per k (self_us rows "warm.locate") /. 1e3);
      ("Warm.howard.self_ms_per_query", per k (self_us rows "warm.howard") /. 1e3);
      ("Serve_loop.overhead_ms_p50", overhead_ms sub c1.s_request);
      ("trace_overhead_pct", 100.0 *. ((Quant.sum c2.s_request /. Quant.sum c1.s_request) -. 1.0));
      fingerprint_isolated s k;
    ]
    @ kernel_layers rows k
  in
  (Array.length sub.Drive.replies, failed, errors @ extra_errors, values, oracle_s)

let run ~exe ~seconds ~gen_s ~trace_dir ~dir w (inputs : Corpus.t) =
  let trace_dir = Option.value trace_dir ~default:dir in
  let phase_ns = int_of_float (float_of_int seconds *. 1e9 /. 3.0) in
  let attempted, failed, errors, values, oracle_s =
    match inputs with
    | Corpus.Serve s -> serve_run ~exe ~phase_ns ~dir ~trace_dir w s inputs
    | Corpus.Stream s -> stream_run ~exe ~phase_ns ~trace_dir w s inputs
  in
  (attempted, failed, errors, complete (("bench.gen_s", gen_s +. oracle_s) :: values))
