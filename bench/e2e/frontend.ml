(* How each workload meets its front-end: the ocr command line, the wire
   requests of the warm-up pass and of the timed sequence, one set-up
   (spawn to last warm-up reply), and the checks every reply must
   pass. *)

(* requests in flight on the one connection: the cluster is driven by
   four callers, so queues can form behind a hot worker *)
let depth = function Corpus.Cluster_mix -> 4 | _ -> 1

let args w (inputs : Corpus.t) =
  match (w, inputs) with
  | Corpus.Serve_hot, _ -> [ "serve"; "--jobs"; "1"; "--cache-size"; "256" ]
  | Corpus.Serve_cold, _ -> [ "serve"; "--jobs"; "1" ]
  | Corpus.Stream_edit, Corpus.Stream s ->
    [ "stream"; s.Corpus.circuit.Corpus.path; "--objective"; "max"; "--jobs"; "1" ]
  | Corpus.Stream_edit, Corpus.Serve _ -> invalid_arg "Frontend.args"
  | Corpus.Cluster_mix, _ ->
    [ "cluster"; "--workers"; string_of_int Corpus.cluster_workers; "--queue-depth"; "64";
      "--jobs"; "1" ]

(* The wire requests of the warm-up pass and of the timed sequence; a
   stream step is one update line plus one query line. *)
let wire (inputs : Corpus.t) =
  match inputs with
  | Corpus.Serve s ->
    let one r = [ Corpus.line r ] in
    (Array.of_list (List.map one s.Corpus.warmup), Array.map one s.Corpus.timed)
  | Corpus.Stream s ->
    ( [| [ Corpus.query_line ] |],
      Array.map
        (fun u -> [ Dyn_protocol.render_update u; Corpus.query_line ])
        s.Corpus.steps )

let run_pass p w ~deadline_ns ~first_id requests =
  if depth w = 1 then Drive.closed_loop p ~deadline_ns requests
  else
    Drive.pipelined p ~depth:(depth w) ~deadline_ns ~first_id
      (Array.map List.hd requests)

let secs_since t0 = float_of_int (Obs.now_ns () - t0) /. 1e9

(* One set-up: spawn the front-end and drive the warm-up pass; the time
   up to its last reply is the set-up time. *)
let start ~exe ?(extra = []) w inputs warm_reqs =
  let t0 = Obs.now_ns () in
  let p = Drive.spawn exe (args w inputs @ extra) in
  let warm = run_pass p w ~deadline_ns:max_int ~first_id:1 warm_reqs in
  (p, warm, secs_since t0)

(* ------------------------------------------------------------------ *)
(* reply checks *)

let json_fields line =
  match Trace_read.parse_json line with
  | Ok (Trace_read.Obj fields) -> fields
  | _ -> []

let is_ok fields = List.assoc_opt "ok" fields = Some (Trace_read.Bool true)

(* Serve or cluster replies against the references: the number of
   failed timed requests and the messages.  Request ids count the
   warm-up requests too. *)
let check_serve o (s : Corpus.serve_inputs) ~(warm : Drive.pass) ~(timed : Drive.pass) =
  let n = Array.length timed.Drive.replies in
  Corpus.prepare o (s.Corpus.warmup @ Array.to_list (Array.sub s.Corpus.timed 0 n));
  let errors = ref [] and failed = ref 0 in
  let check ~timed r ~id = function
    | [ reply ] -> (
      match Corpus.check o r ~id reply with
      | Ok () -> ()
      | Error e ->
        if timed then incr failed;
        errors := e :: !errors)
    | _ -> invalid_arg "Frontend.check_serve"
  in
  List.iteri (fun i r -> check ~timed:false r ~id:(i + 1) warm.Drive.replies.(i)) s.Corpus.warmup;
  let w = List.length s.Corpus.warmup in
  Array.iteri
    (fun i replies -> check ~timed:true s.Corpus.timed.(i) ~id:(w + i + 1) replies)
    timed.Drive.replies;
  (!failed, List.rev !errors)

(* Every stream reply must be ok, and an insertion must get the arc id
   the client expects; the warm-up query and every 50th step's query
   are checked against a cold solve of the client's own copy of the
   graph. *)
let check_stream (s : Corpus.stream_inputs) ~(warm : Drive.pass) ~(timed : Drive.pass) =
  let errors = ref [] and bad = Hashtbl.create 16 in
  let fail k msg =
    Hashtbl.replace bad k ();
    errors := msg :: !errors
  in
  let lambda k reply =
    let f = json_fields reply in
    match List.assoc_opt "lambda" f with
    | Some (Trace_read.Str l) when is_ok f -> Some l
    | _ ->
      fail k (Printf.sprintf "step %d: query failed: %s" k reply);
      None
  in
  let checks = ref [] in
  (match warm.Drive.replies.(0) with
  | [ q ] -> Option.iter (fun l -> checks := [ (-1, l) ]) (lambda (-1) q)
  | _ -> invalid_arg "Frontend.check_stream");
  Array.iteri
    (fun k replies ->
      match replies with
      | [ u; q ] ->
        let f = json_fields u in
        (match s.Corpus.steps.(k) with
        | Dyn.Add_arc { arc; _ }
          when List.assoc_opt "arc" f <> Some (Trace_read.Num (float_of_int arc)) ->
          fail k (Printf.sprintf "step %d: add_arc reply %s, expected arc %d" k u arc)
        | _ ->
          if not (is_ok f) then fail k (Printf.sprintf "step %d: update failed: %s" k u));
        Option.iter (fun l -> if k mod 50 = 0 then checks := (k, l) :: !checks) (lambda k q)
      | _ -> invalid_arg "Frontend.check_stream")
    timed.Drive.replies;
  List.iter (fun (k, msg) -> fail k msg) (Corpus.check_stream s (List.rev !checks));
  Hashtbl.remove bad (-1);
  (Hashtbl.length bad, List.rev !errors)
