(* Worker-process loop: one engine, many sticky dyn sessions, one
   request line in -> one response line out, always flushed.  The
   router relies on the one-line-per-request contract to match
   responses FIFO, and on every failure being a structured error line
   rather than a dead process — the only way a worker should die is
   the router killing it (or a crash this subsystem exists to absorb). *)

type session = { sid : string; srv : Dyn_serve.t; dyn : Dyn.t }

type t = {
  worker_id : int;
  eng : Engine.t;
  wall : bool;
  cache_size : int;
  pool : Executor.t option; (* engine's pool, shared with sessions *)
  sessions : (string, session) Hashtbl.t;
  mutable order : session list; (* creation order, newest first *)
  mutable next_id : int; (* serve request ids, worker-local *)
}

(* splice the session id into a `{...}` reply from the stream protocol *)
let inject_session sid json_line =
  if String.length json_line > 0 && json_line.[0] = '{' then
    "{\"session\":" ^ Njson.escape sid ^ ","
    ^ String.sub json_line 1 (String.length json_line - 1)
  else json_line

(* one registry for the whole process: the engine's telemetry rows and
   pool health, each session's rows (the same table) summed into those
   series in creation order, then the worker-level gauges *)
let metrics_exposition t =
  let m = Engine.metrics_snapshot t.eng in
  List.iter
    (fun s -> Metrics.merge_into ~into:m (Dyn_serve.metrics_snapshot s.srv))
    (List.rev t.order);
  Metrics.set
    (Metrics.gauge m "ocr_worker_sessions")
    (float_of_int (Hashtbl.length t.sessions));
  Metrics.to_prometheus m

let metrics_line t =
  Njson.obj
    [
      ("ok", "true");
      ("worker", string_of_int t.worker_id);
      ("metrics", Njson.escape (metrics_exposition t));
    ]

let handle_open t fields =
  match Njson.field_string fields "session" with
  | None -> Dyn_protocol.error_line "open: missing session field"
  | Some sid -> (
    if Hashtbl.mem t.sessions sid then
      Dyn_protocol.error_line ~session:sid ("session already open: " ^ sid)
    else
      match Njson.field_string fields "graph" with
      | None -> Dyn_protocol.error_line ~session:sid "open: missing graph field"
      | Some path -> (
        let problem =
          match Njson.field_string fields "problem" with
          | Some "ratio" -> Ok Solver.Cycle_ratio
          | Some "mean" | None -> Ok Solver.Cycle_mean
          | Some other -> Error ("open: unknown problem " ^ other)
        in
        let objective =
          match Njson.field_string fields "objective" with
          | Some "max" -> Ok Solver.Maximize
          | Some "min" | None -> Ok Solver.Minimize
          | Some other -> Error ("open: unknown objective " ^ other)
        in
        match (problem, objective) with
        | Error e, _ | _, Error e -> Dyn_protocol.error_line ~session:sid e
        | Ok problem, Ok objective -> (
          match Graph_io.load path with
          | exception (Sys_error e | Failure e) ->
            Dyn_protocol.error_line ~session:sid e
          | g ->
            let dyn = Dyn.create ~problem ~objective ?pool:t.pool g in
            let srv = Dyn_serve.create ~cache_size:t.cache_size dyn in
            let s = { sid; srv; dyn } in
            Hashtbl.replace t.sessions sid s;
            t.order <- s :: t.order;
            Njson.obj
              [
                ("session", Njson.escape sid);
                ("ok", "true");
                ("epoch", string_of_int (Dyn.epoch dyn));
                ("nodes", string_of_int (Dyn.n dyn));
                ("arcs", string_of_int (Dyn.live_arcs dyn));
              ])))

let close_session t s =
  Dyn.close s.dyn;
  Hashtbl.remove t.sessions s.sid;
  t.order <- List.filter (fun s' -> s'.sid <> s.sid) t.order;
  Njson.obj
    [ ("session", Njson.escape s.sid); ("ok", "true"); ("closed", "true") ]

let handle_json t line =
  match Njson.parse_flat line with
  | Error e -> Dyn_protocol.error_line ("bad json: " ^ e)
  | Ok fields -> (
    match Njson.field_string fields "op" with
    | None -> Dyn_protocol.error_line "missing string field \"op\""
    | Some "open" -> handle_open t fields
    | Some "close" -> (
      match Njson.field_string fields "session" with
      | None -> Dyn_protocol.error_line "close: missing session field"
      | Some sid -> (
        match Hashtbl.find_opt t.sessions sid with
        | None -> Dyn_protocol.error_line ~session:sid ("unknown session: " ^ sid)
        | Some s -> close_session t s))
    | Some _ -> (
      match Njson.field_string fields "session" with
      | None -> Dyn_protocol.error_line "missing session field"
      | Some sid -> (
        match Hashtbl.find_opt t.sessions sid with
        | None -> Dyn_protocol.error_line ~session:sid ("unknown session: " ^ sid)
        | Some s -> (
          (* the stream codec ignores the extra "session" field, so the
             raw line is forwarded untouched *)
          match Dyn_serve.handle s.srv line with
          | `Reply r -> inject_session sid r
          | `Quit -> close_session t s))))

let run ?(wall = false) ?(jobs = 1) ?(cache_size = 256) ?trace_file ~worker_id
    ic oc =
  (match trace_file with
  | Some _ ->
    Trace.configure ~capacity:65536 ();
    Trace.preallocate ();
    Trace.set_process ~pid:(worker_id + 1)
      ~name:(Printf.sprintf "worker %d" worker_id)
      ();
    Obs.enable ()
  | None -> ());
  let eng = Engine.create ~jobs ~cache_size () in
  let t =
    {
      worker_id;
      eng;
      wall;
      cache_size;
      pool = (if jobs > 1 then Some (Engine.pool eng) else None);
      sessions = Hashtbl.create 16;
      order = [];
      next_id = 0;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun s -> Dyn.close s.dyn) t.order;
      Engine.shutdown eng;
      match trace_file with
      | None -> ()
      | Some path -> (
        try
          let toc = open_out path in
          output_string toc (Trace.to_chrome_json ());
          close_out toc
        with Sys_error e ->
          prerr_endline ("ocr cluster-worker: cannot write trace file: " ^ e)))
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line = "" || line.[0] = '#' then ()
          else if line = "quit" then raise Exit
          else if line = "ping" then
            Serve_loop.out_line oc
              (Njson.obj
                 [ ("ok", "true"); ("pong", string_of_int t.worker_id) ])
          else if line = "metrics" then Serve_loop.out_line oc (metrics_line t)
          else if String.length line > 5 && String.sub line 0 5 = "sync " then begin
            (* clock-offset handshake: the router sends its now_ns right
               after spawning us; the difference to our clock (offset the
               merger adds to our timestamps) lands in the trace
               metadata.  One reply line keeps the FIFO contract. *)
            (match int_of_string_opt (String.sub line 5 (String.length line - 5))
             with
            | Some router_ns ->
              Trace.set_clock_offset_ns (router_ns - Obs.now_ns ())
            | None -> ());
            Serve_loop.out_line oc
              (Njson.obj
                 [ ("ok", "true"); ("sync", string_of_int t.worker_id) ])
          end
          else if line.[0] = '{' then
            Serve_loop.out_line oc
              (try handle_json t line
               with e -> Dyn_protocol.error_line (Printexc.to_string e))
          else begin
            t.next_id <- t.next_id + 1;
            Serve_loop.out_line oc
              (Serve_loop.handle_request ~wall:t.wall eng ~id:t.next_id line)
          end
        done
      with End_of_file | Exit -> ())
