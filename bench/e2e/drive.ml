(* The client side of the end-to-end run: spawn the real ocr front-end,
   drive it over its stdin/stdout pipes as a closed-loop client, and
   read its peak memory.  One process, one connection, no threads. *)

type proc = { pid : int; oc : out_channel; ic : in_channel }

let live : proc list ref = ref []

let spawn exe args =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  let p =
    { pid; oc = Unix.out_channel_of_descr req_w; ic = Unix.in_channel_of_descr resp_r }
  in
  live := p :: !live;
  p

let forget p = live := List.filter (fun q -> q.pid <> p.pid) !live

(* Ends a session by closing the front-end's stdin (every front-end
   exits on EOF), drains what it still prints and reaps it. *)
let stop p =
  forget p;
  close_out_noerr p.oc;
  (try
     while true do
       ignore (input_line p.ic)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr p.ic;
  match snd (Unix.waitpid [] p.pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "front-end pid %d exited abnormally" p.pid)

(* The error path: whatever is still running is killed and reaped.  A
   killed cluster router takes its workers along, since they exit at
   EOF on the pipe only the router holds. *)
let kill_all () =
  List.iter
    (fun p ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      close_out_noerr p.oc;
      close_in_noerr p.ic;
      try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> failwith ("peak RSS: cannot read " ^ e)
  in
  let hwm =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match hwm with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("peak RSS: no VmHWM line in " ^ path)

let ms_since t0 = float_of_int (Obs.now_ns () - t0) /. 1e6

type pass = {
  latency_ms : Quant.samples;  (** one sample per completed request *)
  done_s : Quant.samples;  (** when each completed, from the pass start *)
  replies : string list array;  (** per completed request, in order *)
  elapsed_s : float;
}

(* Closed loop with one caller: a request is one or more lines, sent
   together; the next is sent once every reply line has arrived.
   Stops at the deadline or at the end of the sequence. *)
let closed_loop p ~deadline_ns requests =
  let latency_ms = Quant.samples () and done_s = Quant.samples () in
  let replies = ref [] in
  let t0 = Obs.now_ns () in
  let i = ref 0 in
  while !i < Array.length requests && Obs.now_ns () < deadline_ns do
    let lines = requests.(!i) in
    let sent = Obs.now_ns () in
    List.iter
      (fun l ->
        output_string p.oc l;
        output_char p.oc '\n')
      lines;
    flush p.oc;
    let rs = List.map (fun _ -> input_line p.ic) lines in
    Quant.add latency_ms (ms_since sent);
    Quant.add done_s (ms_since t0 /. 1e3);
    replies := rs :: !replies;
    incr i
  done;
  { latency_ms; done_s; replies = Array.of_list (List.rev !replies);
    elapsed_s = ms_since t0 /. 1e3 }

(* The router's request id of a cluster reply: [req=N ...] from a
   worker, or {"ok":false,"err":...,"req":N} for a request the router
   itself refused. *)
let reply_id line =
  if String.length line > 4 && String.sub line 0 4 = "req=" then
    Scanf.sscanf line "req=%d" Fun.id
  else
    match Njson.parse_flat line with
    | Ok fields when Njson.field_int fields "req" <> None ->
      Option.get (Njson.field_int fields "req")
    | _ -> failwith ("reply without a request id: " ^ line)

(* Closed loop with [depth] callers on one connection: [depth] single-
   line requests stay in flight, and each reply releases the next
   request.  Replies may come back out of order; the router numbers
   solve requests in arrival order from [first_id]. *)
let pipelined p ~depth ~deadline_ns ~first_id lines =
  let n = Array.length lines in
  let sent_at = Array.make n 0 in
  let replies = Array.make n [] in
  let latency_ms = Quant.samples () and done_s = Quant.samples () in
  let t0 = Obs.now_ns () in
  let next = ref 0 and inflight = ref 0 in
  let send () =
    sent_at.(!next) <- Obs.now_ns ();
    output_string p.oc lines.(!next);
    output_char p.oc '\n';
    flush p.oc;
    incr next;
    incr inflight
  in
  while !next < n && !inflight < depth do
    send ()
  done;
  while !inflight > 0 do
    let line = input_line p.ic in
    let i = reply_id line - first_id in
    if i < 0 || i >= !next || replies.(i) <> [] then
      failwith ("unexpected reply: " ^ line);
    replies.(i) <- [ line ];
    Quant.add latency_ms (ms_since sent_at.(i));
    Quant.add done_s (ms_since t0 /. 1e3);
    decr inflight;
    if !next < n && Obs.now_ns () < deadline_ns then send ()
  done;
  { latency_ms; done_s; replies = Array.sub replies 0 !next;
    elapsed_s = ms_since t0 /. 1e3 }

(* The pids whose memory the cluster run sums: the router and each
   worker named by the router's [status] line. *)
let cluster_pids p ~workers =
  output_string p.oc "status\n";
  flush p.oc;
  let line = input_line p.ic in
  match Njson.parse_flat line with
  | Error e -> failwith ("bad status line: " ^ e)
  | Ok fields ->
    p.pid
    :: List.init workers (fun i ->
           match Njson.field_int fields (Printf.sprintf "pid%d" i) with
           | Some pid when pid > 0 -> pid
           | _ -> failwith ("status line names no pid for worker " ^ string_of_int i))
