(* The cluster router.  Single-threaded select loop: one client
   channel in, N worker pipe pairs out.  Workers are serial and answer
   exactly one line per request line, so responses are matched FIFO
   per worker; everything the router itself originates (sheds,
   dead-worker errors) is a structured line, and a worker death must
   never take the router down with it. *)

type config = {
  exe : string;
  workers : int;
  jobs : int;
  cache_size : int;
  queue_depth : int;
  request_timeout_ms : float;
  drain_timeout_ms : float;
  wall : bool;
  metrics_file : string option;
  trace_dir : string option;
  access_log : string option;
}

let config ?(exe = Sys.executable_name) ?(jobs = 1) ?(cache_size = 256)
    ?(queue_depth = 64) ?(request_timeout_ms = 30_000.)
    ?(drain_timeout_ms = 5_000.) ?(wall = false) ?metrics_file ?trace_dir
    ?access_log ~workers () =
  if workers < 1 then invalid_arg "Router.config: workers must be >= 1";
  {
    exe;
    workers;
    jobs;
    cache_size;
    queue_depth;
    request_timeout_ms;
    drain_timeout_ms;
    wall;
    metrics_file;
    trace_dir;
    access_log;
  }

exception Worker_down of int

(* ------------------------------------------------------------------ *)
(* state *)

type metrics_target = To_client | To_file of string

type collector = {
  mutable awaiting : int;
  mutable parts : (int * Metrics.t) list;
  mutable finished : bool;
  target : metrics_target;
}

(* everything the router knows about one in-flight solve: identity for
   the reply rewrite, the routing decision for the access log, and the
   phase clock (monotonic ns, the same clock the trace records use, so
   access-log and trace attribution agree by construction) *)
type solve_meta = {
  sm_gid : int;  (* global request id; rewrite req=<local> on reply *)
  sm_trace : int;  (* trace id propagated to the worker; 0 = tracing off *)
  sm_worker : int;
  sm_key : int;  (* shard key (graph fingerprint hash) *)
  sm_queue_at : int;  (* worker queue depth at admission *)
  sm_admit_ns : int;
  mutable sm_sent_ns : int;
  mutable sm_head_ns : int;  (* when the request reached the queue head *)
}

(* what the FIFO head of a worker's queue is owed *)
type pending_kind =
  | Solve of solve_meta
  | Session_op of { sid : string; line : string; journal : bool }
  | Open_op of string
  | Close_op of string
  | Replay  (* recovery traffic: reply discarded, never shed *)
  | Metrics_req of collector
  | Ping
  | Sync  (* clock-offset handshake at spawn: reply discarded *)

type pending = { kind : pending_kind; mutable since : float }

type worker = {
  w_id : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;  (* router -> worker stdin *)
  mutable from_w : Unix.file_descr;  (* worker stdout -> router *)
  rbuf : Buffer.t;  (* partial response line *)
  queue : pending Queue.t;
  mutable restarts : int;
  mutable fail_streak : int;  (* respawns without any response since *)
  mutable last_ping : float;
}

type session = {
  s_id : string;
  s_worker : int;  (* sticky: sessions are pinned by worker index *)
  s_open_line : string;
  mutable s_journal : string list;  (* acked update lines, newest first *)
  mutable s_opened : bool;
}

type t = {
  cfg : config;
  per_worker_cache : int;
  map : Shard_map.t;
  ws : worker array;
  sessions : (string, session) Hashtbl.t;
  files : File_table.t;  (* path -> graph fingerprint, for shard keys *)
  client_oc : out_channel;
  mutable next_req : int;
  mutable requests : int;
  mutable shed : int;
  mutable file_collector : collector option;
  mutable stopping : bool;
  tracing : bool;
  mutable access : out_channel option;
      (* NDJSON access log; a write failure disables it, never the router *)
  lat : Metrics.t;
      (* always-on per-worker latency histograms, merged into every
         aggregated exposition *)
}

let now () = Unix.gettimeofday ()
let max_fail_streak = 5
let ping_interval_s = 2.0

(* router-side phase markers, tagged with the request's trace id.  The
   rt.request async span brackets the whole router residency; the five
   instants are the phase boundaries `ocr trace summarize` attributes
   between (dispatch = admit->sent, queue = sent->head, solve =
   head->reply, serialize = reply->done). *)
let sp_request = Obs.intern "rt.request"
let sp_admit = Obs.intern "rt.admit"
let sp_sent = Obs.intern "rt.sent"
let sp_head = Obs.intern "rt.head"
let sp_reply = Obs.intern "rt.reply"
let sp_done = Obs.intern "rt.done"
let sp_replay = Obs.intern "rt.replay"

let out_line t line =
  output_string t.client_oc line;
  output_char t.client_oc '\n';
  flush t.client_oc

let log_err fmt = Printf.ksprintf prerr_endline ("ocr cluster: " ^^ fmt)

let contains line pat =
  let n = String.length line and k = String.length pat in
  let rec go i = i + k <= n && (String.sub line i k = pat || go (i + 1)) in
  go 0

(* update replies are flat objects, so a literal "ok":true can only
   be the status field *)
let contains_ok_true line = contains line "\"ok\":true"

(* ------------------------------------------------------------------ *)
(* access log *)

let ms_between a_ns b_ns = float_of_int (b_ns - a_ns) /. 1_000_000.0

let access_write t line =
  match t.access with
  | None -> ()
  | Some oc -> (
    try
      output_string oc line;
      output_char oc '\n';
      flush oc
    with Sys_error e ->
      (* same contract as the metrics_file guard: log and disable,
         the router stays up *)
      t.access <- None;
      log_err "access log write failed, disabling it: %s" e)

(* one line per completed solve; phase fields only where the phases
   actually ran, so shed/failed requests stay greppable by status *)
let access_solve_line sm ~status ~cached ~reply_ns ~done_ns =
  Njson.obj
    [
      ("trace", string_of_int sm.sm_trace);
      ("req", string_of_int sm.sm_gid);
      ("worker", string_of_int sm.sm_worker);
      ("key", string_of_int sm.sm_key);
      ("cache", if cached then "true" else "false");
      ("queue", string_of_int sm.sm_queue_at);
      ("dispatch_ms", Njson.float_lit (ms_between sm.sm_admit_ns sm.sm_sent_ns));
      ("queue_ms", Njson.float_lit (ms_between sm.sm_sent_ns sm.sm_head_ns));
      ("solve_ms", Njson.float_lit (ms_between sm.sm_head_ns reply_ns));
      ("serialize_ms", Njson.float_lit (ms_between reply_ns done_ns));
      ("total_ms", Njson.float_lit (ms_between sm.sm_admit_ns done_ns));
      ("status", Njson.escape status);
    ]

let access_fail_line ~trace ~gid ~worker ~key ~queue ~status =
  Njson.obj
    [
      ("trace", string_of_int trace);
      ("req", string_of_int gid);
      ("worker", string_of_int worker);
      ("key", string_of_int key);
      ("queue", string_of_int queue);
      ("status", Njson.escape status);
    ]

let session_err sid msg =
  Njson.obj
    [ ("session", Njson.escape sid); ("ok", "false"); ("err", Njson.escape msg) ]

(* is this stream op one that mutates the overlay (and so must be
   replayed onto a replacement worker)? *)
let is_update_op = function
  | "set_weight" | "set_transit" | "add_arc" | "remove_arc" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* spawning *)

let spawn_into t w =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ([
         t.cfg.exe;
         "cluster-worker";
         "--worker-id";
         string_of_int w.w_id;
         "--jobs";
         string_of_int t.cfg.jobs;
         "--cache-size";
         string_of_int t.per_worker_cache;
       ]
      @ (if t.cfg.wall then [ "--wall" ] else [])
      @
      match t.cfg.trace_dir with
      | Some dir ->
        (* a respawned worker rewrites the same file: the trace of the
           incarnation that survives to shutdown *)
        [ "--trace";
          Filename.concat dir (Printf.sprintf "worker-%d.json" w.w_id) ]
      | None -> [])
  in
  (* create_process dup2s the child ends onto stdin/stdout, which
     clears their cloexec; every other pipe fd vanishes at exec *)
  let pid = Unix.create_process t.cfg.exe argv req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  Unix.set_nonblock resp_r;
  w.pid <- pid;
  w.to_w <- req_w;
  w.from_w <- resp_r;
  Buffer.clear w.rbuf;
  Queue.clear w.queue;
  w.last_ping <- now ()

(* ------------------------------------------------------------------ *)
(* request side *)

let send_to_worker w kind line =
  Queue.add { kind; since = now () } w.queue;
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  try
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write w.to_w payload !off (len - !off)
    done
  with Unix.Unix_error _ -> raise (Worker_down w.w_id)

(* clock-offset handshake, first line after every (re)spawn: the
   worker answers one line and stamps router_now_ns - its_now_ns into
   its trace metadata, so the merger can put every per-process file on
   the router's clock.  (On one host CLOCK_MONOTONIC is system-wide,
   so the measured offset is ~the one-way pipe latency — the handshake
   is what makes the files honest about it.) *)
let sync_worker w =
  try send_to_worker w Sync (Printf.sprintf "sync %d" (Obs.now_ns ()))
  with Worker_down _ -> () (* EOF detection will reap it *)

(* fingerprint-hash routing for one-shot solves, through the same
   stat-checked table the engine answers cheap hits from; unreadable
   paths hash the path string instead and the worker produces the
   proper error line *)
let solve_key t path =
  match File_table.fingerprint t.files path with
  | Some fp -> Fingerprint.hash fp
  | None -> Shard_map.hash_string path

(* ------------------------------------------------------------------ *)
(* aggregated observability *)

let router_registry t =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "ocr_router_requests_total") t.requests;
  Metrics.add (Metrics.counter m "ocr_router_shed_total") t.shed;
  Metrics.set
    (Metrics.gauge m "ocr_cluster_workers")
    (float_of_int (Array.length t.ws));
  Metrics.set
    (Metrics.gauge m "ocr_cluster_workers_up")
    (float_of_int (Shard_map.up_count t.map));
  Metrics.set
    (Metrics.gauge m "ocr_cluster_sessions")
    (float_of_int (Hashtbl.length t.sessions));
  Metrics.add
    (Metrics.counter m "ocr_worker_restarts_total")
    (Array.fold_left (fun n w -> n + w.restarts) 0 t.ws);
  (* one family at a time, so samples of a family stay adjacent *)
  Array.iter
    (fun w ->
      Metrics.set
        (Metrics.gauge m (Printf.sprintf "ocr_worker_up{worker=\"%d\"}" w.w_id))
        (if Shard_map.is_up t.map w.w_id then 1. else 0.))
    t.ws;
  Array.iter
    (fun w ->
      Metrics.set
        (Metrics.gauge m
           (Printf.sprintf "ocr_worker_queue_depth{worker=\"%d\"}" w.w_id))
        (float_of_int (Queue.length w.queue)))
    t.ws;
  Array.iter
    (fun w ->
      Metrics.add
        (Metrics.counter m
           (Printf.sprintf "ocr_worker_restarts_total{worker=\"%d\"}" w.w_id))
        w.restarts)
    t.ws;
  (* per-worker latency attribution (queue wait and client-visible
     total per solve), recorded whether or not tracing is on *)
  Metrics.merge_into ~into:m t.lat;
  m

let queue_wait_hist t wi =
  Metrics.histogram t.lat
    (Printf.sprintf "ocr_queue_wait_ms{worker=\"%d\"}" wi)

let request_total_hist t wi =
  Metrics.histogram t.lat
    (Printf.sprintf "ocr_request_total_ms{worker=\"%d\"}" wi)

let finish_collection t c =
  if not c.finished then begin
    c.finished <- true;
    if t.file_collector == Some c then t.file_collector <- None;
    let m = router_registry t in
    List.iter
      (fun (_, part) -> Metrics.merge_into ~into:m part)
      (List.sort (fun (a, _) (b, _) -> compare a b) c.parts);
    let text = Metrics.to_prometheus m in
    match c.target with
    | To_client ->
      output_string t.client_oc text;
      flush t.client_oc
    | To_file path -> (
      try
        let oc = open_out path in
        output_string oc text;
        close_out oc
      with Sys_error e -> log_err "cannot write metrics file: %s" e)
  end

(* ------------------------------------------------------------------ *)
(* crash handling: flush in-flight with structured errors, respawn,
   replay sticky sessions from the router's journal *)

let rec handle_worker_down t w =
  if Shard_map.is_up t.map w.w_id then begin
    Shard_map.set_up t.map w.w_id false;
    log_err "worker %d (pid %d) down; failing %d in-flight request(s)" w.w_id
      w.pid (Queue.length w.queue);
    Queue.iter (fun p -> fail_pending t p) w.queue;
    Queue.clear w.queue;
    Buffer.clear w.rbuf;
    (try Unix.close w.to_w with Unix.Unix_error _ -> ());
    (try Unix.close w.from_w with Unix.Unix_error _ -> ());
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    if not t.stopping then respawn t w
  end

and fail_pending t p =
  match p.kind with
  | Solve sm ->
    out_line t
      (Printf.sprintf "{\"ok\":false,\"err\":\"worker died\",\"req\":%d}"
         sm.sm_gid);
    if sm.sm_trace <> 0 then begin
      Trace.instant_id sp_done sm.sm_trace;
      Trace.end_span_id sp_request sm.sm_trace
    end;
    access_write t
      (access_fail_line ~trace:sm.sm_trace ~gid:sm.sm_gid
         ~worker:sm.sm_worker ~key:sm.sm_key ~queue:sm.sm_queue_at
         ~status:"worker died")
  | Session_op { sid; _ } -> out_line t (session_err sid "worker died")
  | Open_op sid ->
    Hashtbl.remove t.sessions sid;
    out_line t (session_err sid "worker died")
  | Close_op sid ->
    Hashtbl.remove t.sessions sid;
    out_line t (session_err sid "worker died")
  | Replay -> ()
  | Ping -> ()
  | Sync -> ()
  | Metrics_req c ->
    c.awaiting <- c.awaiting - 1;
    if c.awaiting <= 0 then finish_collection t c

and respawn t w =
  if w.fail_streak >= max_fail_streak then begin
    log_err "worker %d failed %d times in a row, leaving it down" w.w_id
      w.fail_streak;
    drop_sessions_of t w.w_id
  end
  else begin
    w.restarts <- w.restarts + 1;
    w.fail_streak <- w.fail_streak + 1;
    match spawn_into t w with
    | exception e ->
      log_err "respawn of worker %d failed: %s" w.w_id (Printexc.to_string e);
      drop_sessions_of t w.w_id
    | () ->
      Shard_map.set_up t.map w.w_id true;
      log_err "worker %d respawned as pid %d" w.w_id w.pid;
      sync_worker w;
      replay_sessions t w
  end

and drop_sessions_of t w_id =
  let doomed =
    Hashtbl.fold
      (fun sid s acc -> if s.s_worker = w_id then sid :: acc else acc)
      t.sessions []
  in
  List.iter (Hashtbl.remove t.sessions) doomed

and replay_sessions t w =
  let mine =
    Hashtbl.fold
      (fun _ s acc ->
        if s.s_worker = w.w_id && s.s_opened then s :: acc else acc)
      t.sessions []
    |> List.sort (fun a b -> compare a.s_id b.s_id)
  in
  Trace.begin_span sp_replay;
  (try
     List.iter
       (fun s ->
         send_to_worker w Replay s.s_open_line;
         List.iter
           (fun line -> send_to_worker w Replay line)
           (List.rev s.s_journal))
       mine
   with Worker_down _ -> handle_worker_down t w);
  Trace.end_span sp_replay

(* a send that survives the target dying under it *)
let forward t w kind line =
  try send_to_worker w kind line
  with Worker_down _ -> handle_worker_down t w

(* ------------------------------------------------------------------ *)
(* response side *)

let rewrite_req gid line =
  if String.length line >= 4 && String.sub line 0 4 = "req=" then begin
    let i = ref 4 in
    while !i < String.length line && line.[!i] >= '0' && line.[!i] <= '9' do
      incr i
    done;
    "req=" ^ string_of_int gid ^ String.sub line !i (String.length line - !i)
  end
  else line

let process_response t w line =
  w.fail_streak <- 0;
  match Queue.take_opt w.queue with
  | None -> log_err "unexpected line from worker %d: %s" w.w_id line
  | Some p -> (
    (* the next request's service clock starts when it reaches the head *)
    (match Queue.peek_opt w.queue with
    | Some q -> (
      q.since <- now ();
      match q.kind with
      | Solve sm ->
        sm.sm_head_ns <- Obs.now_ns ();
        if sm.sm_trace <> 0 then Trace.instant_id sp_head sm.sm_trace
      | _ -> ())
    | None -> ());
    match p.kind with
    | Solve sm ->
      let reply_ns = Obs.now_ns () in
      if sm.sm_trace <> 0 then Trace.instant_id sp_reply sm.sm_trace;
      out_line t (rewrite_req sm.sm_gid line);
      let done_ns = Obs.now_ns () in
      if sm.sm_trace <> 0 then begin
        Trace.instant_id sp_done sm.sm_trace;
        Trace.end_span_id sp_request sm.sm_trace
      end;
      Metrics.observe (queue_wait_hist t sm.sm_worker)
        (ms_between sm.sm_sent_ns sm.sm_head_ns);
      Metrics.observe (request_total_hist t sm.sm_worker)
        (ms_between sm.sm_admit_ns done_ns);
      if t.access <> None then
        access_write t
          (access_solve_line sm
             ~status:(if contains line "status=ok" then "ok" else "error")
             ~cached:(contains line "cached=true")
             ~reply_ns ~done_ns)
    | Session_op { sid; line = req; journal } -> (
      out_line t line;
      if journal && contains_ok_true line then
        match Hashtbl.find_opt t.sessions sid with
        | Some s -> s.s_journal <- req :: s.s_journal
        | None -> ())
    | Open_op sid -> (
      out_line t line;
      match Hashtbl.find_opt t.sessions sid with
      | Some s when contains_ok_true line -> s.s_opened <- true
      | Some _ -> Hashtbl.remove t.sessions sid
      | None -> ())
    | Close_op sid ->
      out_line t line;
      Hashtbl.remove t.sessions sid
    | Replay -> ()
    | Ping -> ()
    | Sync -> ()
    | Metrics_req c ->
      (match Njson.parse_flat line with
      | Ok fields -> (
        match Njson.field_string fields "metrics" with
        | Some text -> (
          match Metrics.of_prometheus text with
          | Ok m -> c.parts <- (w.w_id, m) :: c.parts
          | Error e -> log_err "bad metrics from worker %d: %s" w.w_id e)
        | None -> log_err "metrics reply without payload from worker %d" w.w_id)
      | Error e -> log_err "bad metrics reply from worker %d: %s" w.w_id e);
      c.awaiting <- c.awaiting - 1;
      if c.awaiting <= 0 then finish_collection t c)

(* pull every complete line out of the worker's read buffer *)
let drain_lines t w =
  let again = ref true in
  while !again do
    let s = Buffer.contents w.rbuf in
    match String.index_opt s '\n' with
    | None -> again := false
    | Some i ->
      Buffer.clear w.rbuf;
      Buffer.add_substring w.rbuf s (i + 1) (String.length s - i - 1);
      process_response t w (String.sub s 0 i)
  done

let read_buf = Bytes.create 65536

let handle_worker_readable t w =
  match Unix.read w.from_w read_buf 0 (Bytes.length read_buf) with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> handle_worker_down t w
  | 0 -> handle_worker_down t w
  | n ->
    Buffer.add_subbytes w.rbuf read_buf 0 n;
    drain_lines t w

(* ------------------------------------------------------------------ *)
(* client side *)

let status_line t =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "{\"ok\":true,\"workers\":%d,\"up\":%d,\"sessions\":%d,\"requests\":%d,\"shed\":%d"
    (Array.length t.ws) (Shard_map.up_count t.map)
    (Hashtbl.length t.sessions) t.requests t.shed;
  Array.iter
    (fun w ->
      Printf.bprintf b
        ",\"pid%d\":%d,\"up%d\":%b,\"queue%d\":%d,\"restarts%d\":%d" w.w_id
        w.pid w.w_id
        (Shard_map.is_up t.map w.w_id)
        w.w_id (Queue.length w.queue) w.w_id w.restarts)
    t.ws;
  Buffer.add_char b '}';
  Buffer.contents b

let start_metrics t target =
  let up =
    Array.to_list t.ws
    |> List.filter (fun w -> Shard_map.is_up t.map w.w_id)
  in
  let c =
    { awaiting = List.length up; parts = []; finished = false; target }
  in
  (match target with To_file _ -> t.file_collector <- Some c | To_client -> ());
  if c.awaiting = 0 then finish_collection t c
  else List.iter (fun w -> forward t w (Metrics_req c) "metrics") up

let queue_full t w = Queue.length w.queue >= t.cfg.queue_depth

let handle_solve_line t line =
  t.requests <- t.requests + 1;
  t.next_req <- t.next_req + 1;
  let gid = t.next_req in
  let admit_ns = Obs.now_ns () in
  (* the trace id is the global request id: unique per request, and
     greppable straight back to the client's req= field *)
  let trace = if t.tracing then gid else 0 in
  if trace <> 0 then begin
    Trace.begin_span_id sp_request trace;
    Trace.instant_id sp_admit trace
  end;
  let key =
    match Request.parse_spec line with
    | Ok spec -> solve_key t spec.Request.path
    | Error _ -> Shard_map.hash_string line
  in
  match Shard_map.assign t.map key with
  | None ->
    out_line t
      (Printf.sprintf "{\"ok\":false,\"err\":\"no workers up\",\"req\":%d}" gid);
    if trace <> 0 then begin
      Trace.instant_id sp_done trace;
      Trace.end_span_id sp_request trace
    end;
    access_write t
      (access_fail_line ~trace ~gid ~worker:(-1) ~key ~queue:0
         ~status:"no workers up")
  | Some wi ->
    let w = t.ws.(wi) in
    if queue_full t w then begin
      t.shed <- t.shed + 1;
      out_line t
        (Printf.sprintf "{\"ok\":false,\"err\":\"overloaded\",\"req\":%d}" gid);
      if trace <> 0 then begin
        Trace.instant_id sp_done trace;
        Trace.end_span_id sp_request trace
      end;
      access_write t
        (access_fail_line ~trace ~gid ~worker:wi ~key
           ~queue:(Queue.length w.queue) ~status:"overloaded")
    end
    else begin
      let sm =
        {
          sm_gid = gid;
          sm_trace = trace;
          sm_worker = wi;
          sm_key = key;
          sm_queue_at = Queue.length w.queue;
          sm_admit_ns = admit_ns;
          sm_sent_ns = admit_ns;
          sm_head_ns = admit_ns;
        }
      in
      let at_head = Queue.is_empty w.queue in
      (* context propagation: one extra key=value token, absent when
         tracing is off, ignored-but-parsed by any engine — old
         workers and clients see byte-identical traffic without it *)
      let line =
        if trace <> 0 then Printf.sprintf "%s trace=%d" line trace else line
      in
      match send_to_worker w (Solve sm) line with
      | exception Worker_down _ -> handle_worker_down t w
      | () ->
        let sent_ns = Obs.now_ns () in
        sm.sm_sent_ns <- sent_ns;
        if trace <> 0 then Trace.instant_id sp_sent trace;
        if at_head then begin
          sm.sm_head_ns <- sent_ns;
          if trace <> 0 then Trace.instant_id sp_head trace
        end
    end

let handle_session_line t line =
  match Njson.parse_flat line with
  | Error e -> out_line t (Dyn_protocol.error_line ("bad json: " ^ e))
  | Ok fields -> (
    let sid = Njson.field_string fields "session" in
    match (Njson.field_string fields "op", sid) with
    | None, _ -> out_line t (Dyn_protocol.error_line "missing string field \"op\"")
    | Some "quit", None -> t.stopping <- true
    | Some "open", None ->
      out_line t (Dyn_protocol.error_line "open: missing session field")
    | Some "open", Some sid -> (
      t.requests <- t.requests + 1;
      if Hashtbl.mem t.sessions sid then
        out_line t (session_err sid ("session already open: " ^ sid))
      else
        match Shard_map.assign_string t.map sid with
        | None -> out_line t (session_err sid "no workers up")
        | Some wi ->
          let w = t.ws.(wi) in
          if queue_full t w then begin
            t.shed <- t.shed + 1;
            out_line t (session_err sid "overloaded")
          end
          else begin
            Hashtbl.replace t.sessions sid
              {
                s_id = sid;
                s_worker = wi;
                s_open_line = line;
                s_journal = [];
                s_opened = false;
              };
            forward t w (Open_op sid) line
          end)
    | Some _, None ->
      out_line t (Dyn_protocol.error_line "missing session field")
    | Some op, Some sid -> (
      t.requests <- t.requests + 1;
      match Hashtbl.find_opt t.sessions sid with
      | None -> out_line t (session_err sid ("unknown session: " ^ sid))
      | Some s ->
        let w = t.ws.(s.s_worker) in
        if not (Shard_map.is_up t.map s.s_worker) then
          out_line t (session_err sid "worker down")
        else if queue_full t w then begin
          t.shed <- t.shed + 1;
          out_line t (session_err sid "overloaded")
        end
        else
          let kind =
            if op = "close" || op = "quit" then Close_op sid
            else Session_op { sid; line; journal = is_update_op op }
          in
          forward t w kind line))

let handle_client_line t raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then ()
  else if line = "quit" then t.stopping <- true
  else if line = "status" then out_line t (status_line t)
  else if line = "metrics" then start_metrics t To_client
  else if line.[0] = '{' then handle_session_line t line
  else handle_solve_line t line

(* ------------------------------------------------------------------ *)
(* the select loop *)

let check_timeouts t =
  let tick = now () in
  if t.cfg.request_timeout_ms > 0. then begin
    let limit = t.cfg.request_timeout_ms /. 1000. in
    Array.iter
      (fun w ->
        if Shard_map.is_up t.map w.w_id then
          match Queue.peek_opt w.queue with
          | Some p when tick -. p.since > limit ->
            log_err "worker %d exceeded %.0fms at queue head, killing it"
              w.w_id t.cfg.request_timeout_ms;
            handle_worker_down t w
          | _ -> ())
      t.ws
  end;
  (* proactive liveness: ping idle workers so a wedged one is noticed
     before the next real request parks behind it *)
  Array.iter
    (fun w ->
      if
        Shard_map.is_up t.map w.w_id
        && Queue.is_empty w.queue
        && tick -. w.last_ping > ping_interval_s
      then begin
        w.last_ping <- tick;
        forward t w Ping "ping"
      end)
    t.ws

let up_read_fds t =
  Array.fold_left
    (fun acc w -> if Shard_map.is_up t.map w.w_id then w.from_w :: acc else acc)
    [] t.ws

let dispatch_readable t ready ~client_fd ~on_client =
  List.iter
    (fun fd ->
      if client_fd <> None && Some fd = client_fd then on_client ()
      else
        (* resolve at dispatch time: an earlier crash in this batch may
           have closed (or reused) the fd; nonblocking reads make a
           stale hit harmless *)
        Array.iter
          (fun w ->
            if Shard_map.is_up t.map w.w_id && w.from_w = fd then
              handle_worker_readable t w)
          t.ws)
    ready

let inflight_total t =
  Array.fold_left (fun n w -> n + Queue.length w.queue) 0 t.ws

let serve_loop t client_fd =
  let cbuf = Buffer.create 256 in
  let client_open = ref true in
  let on_client () =
    match Unix.read client_fd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
      client_open := false;
      t.stopping <- true
    | 0 ->
      client_open := false;
      t.stopping <- true
    | n ->
      Buffer.add_subbytes cbuf read_buf 0 n;
      let again = ref true in
      while !again && not t.stopping do
        let s = Buffer.contents cbuf in
        match String.index_opt s '\n' with
        | None -> again := false
        | Some i ->
          Buffer.clear cbuf;
          Buffer.add_substring cbuf s (i + 1) (String.length s - i - 1);
          handle_client_line t (String.sub s 0 i)
      done
  in
  while not t.stopping do
    let rfds =
      (if !client_open then [ client_fd ] else []) @ up_read_fds t
    in
    match Unix.select rfds [] [] 0.2 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
      dispatch_readable t ready ~client_fd:(Some client_fd) ~on_client;
      check_timeouts t
  done

(* ------------------------------------------------------------------ *)
(* shutdown: bounded drain of in-flight work, final metrics snapshot,
   quit lines, then reap (kill stragglers) *)

let drain t =
  (match t.cfg.metrics_file with
  | Some path -> start_metrics t (To_file path)
  | None -> ());
  let deadline = now () +. (t.cfg.drain_timeout_ms /. 1000.) in
  while inflight_total t > 0 && now () < deadline do
    match Unix.select (up_read_fds t) [] [] 0.05 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
      dispatch_readable t ready ~client_fd:None ~on_client:ignore;
      check_timeouts t
  done;
  (* a hung worker must not lose the whole snapshot *)
  (match t.file_collector with
  | Some c -> finish_collection t c
  | None -> ());
  Array.iter
    (fun w ->
      if Shard_map.is_up t.map w.w_id then begin
        (try
           ignore (Unix.write_substring w.to_w "quit\n" 0 5)
         with Unix.Unix_error _ -> ());
        (try Unix.close w.to_w with Unix.Unix_error _ -> ());
        (try Unix.close w.from_w with Unix.Unix_error _ -> ())
      end)
    t.ws;
  let kill_deadline = now () +. 1.0 in
  Array.iter
    (fun w ->
      if Shard_map.is_up t.map w.w_id then
        try
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] w.pid with
            | 0, _ ->
              if now () < kill_deadline then begin
                Unix.sleepf 0.02;
                wait ()
              end
              else begin
                Unix.kill w.pid Sys.sigkill;
                ignore (Unix.waitpid [] w.pid)
              end
            | _ -> ()
          in
          wait ()
        with Unix.Unix_error _ -> ())
    t.ws

let run cfg client_fd client_oc =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the router is the trace's reference clock: absolute timestamps,
     zero offset; workers ship their own files with their measured
     offsets and `ocr trace merge` aligns them here *)
  (match cfg.trace_dir with
  | Some _ ->
    Trace.configure ~capacity:65536 ();
    Trace.preallocate ();
    Trace.set_process ~pid:0 ~name:"router" ();
    Obs.enable ()
  | None -> ());
  let access =
    match cfg.access_log with
    | None -> None
    | Some path -> (
      (* same contract as the metrics file: an unusable path is logged
         and the feature disabled, the cluster still serves *)
      try Some (open_out path)
      with Sys_error e ->
        log_err "cannot open access log, disabling it: %s" e;
        None)
  in
  let t =
    {
      cfg;
      per_worker_cache = max 1 (cfg.cache_size / cfg.workers);
      map = Shard_map.create ~workers:cfg.workers;
      ws =
        Array.init cfg.workers (fun w_id ->
            {
              w_id;
              pid = -1;
              to_w = Unix.stdin;
              from_w = Unix.stdin;
              rbuf = Buffer.create 256;
              queue = Queue.create ();
              restarts = 0;
              fail_streak = 0;
              last_ping = 0.;
            });
      sessions = Hashtbl.create 16;
      files = File_table.create ~capacity:cfg.cache_size;
      client_oc;
      next_req = 0;
      requests = 0;
      shed = 0;
      file_collector = None;
      stopping = false;
      tracing = cfg.trace_dir <> None;
      access;
      lat = Metrics.create ();
    }
  in
  (* every worker exports its latency histograms from the start, zero
     until it serves, so the exposition does not depend on routing;
     one loop per family keeps each family's samples adjacent *)
  Array.iter (fun w -> ignore (queue_wait_hist t w.w_id)) t.ws;
  Array.iter (fun w -> ignore (request_total_hist t w.w_id)) t.ws;
  Array.iter (fun w -> spawn_into t w) t.ws;
  if t.tracing then Array.iter (fun w -> sync_worker w) t.ws;
  serve_loop t client_fd;
  drain t;
  (match t.access with Some oc -> close_out_noerr oc | None -> ());
  match cfg.trace_dir with
  | None -> ()
  | Some dir -> (
    let path = Filename.concat dir "router.json" in
    try
      let oc = open_out path in
      output_string oc (Trace.to_chrome_json ());
      close_out oc
    with Sys_error e -> log_err "cannot write trace file: %s" e)
