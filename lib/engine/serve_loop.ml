(* The serve/stream protocol loops, extracted from bin/main.ml so that
   the CLI, the cluster worker processes and the tests all run the
   same code over explicit channels.  One rule throughout: every
   protocol line is flushed as soon as it is written — a pipe or
   socket peer must never wait on a buffered response. *)

let out_line oc s =
  output_string oc s;
  output_char oc '\n';
  flush oc

let print_telemetry eng oc =
  let s = Format.asprintf "@[<v>%a@]" Telemetry.pp_summary (Engine.telemetry eng) in
  List.iter (fun line -> out_line oc ("# " ^ line)) (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let error_reply ~id ?file msg =
  match file with
  | None -> Printf.sprintf "req=%d status=error msg=%S" id msg
  | Some path -> Printf.sprintf "req=%d file=%s status=error msg=%S" id path msg

let handle_request ?wall eng ~id line =
  try
    match Request.parse_spec line with
    | Error msg -> error_reply ~id msg
    | Ok spec -> (
      match Engine.solve_path eng ~id spec with
      | Error e -> error_reply ~id ~file:spec.Request.path e
      | Ok r -> Engine.response_line ?wall r)
  with e -> error_reply ~id (Printexc.to_string e)

let serve ?(wall = false) eng ic oc =
  let id = ref 0 in
  try
    while true do
      let line = String.trim (input_line ic) in
      if line = "" || line.[0] = '#' then ()
      else if line = "quit" then raise Exit
      else if line = "telemetry" then print_telemetry eng oc
      else if line = "metrics" then begin
        output_string oc (Metrics.to_prometheus (Engine.metrics_snapshot eng));
        flush oc
      end
      else begin
        incr id;
        out_line oc (handle_request ~wall eng ~id:!id line)
      end
    done
  with End_of_file | Exit -> ()

(* ------------------------------------------------------------------ *)
(* stream                                                              *)
(* ------------------------------------------------------------------ *)

let stream ?metrics_every srv ic oc =
  let handled = ref 0 in
  let handle_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then true
    else
      match Dyn_serve.handle srv line with
      | `Reply r ->
        out_line oc r;
        incr handled;
        (match metrics_every with
        | Some n when !handled mod n = 0 -> out_line oc (Dyn_serve.metrics_line srv)
        | _ -> ());
        true
      | `Quit -> false
  in
  try
    let continue = ref true in
    while !continue do
      continue := handle_line (input_line ic)
    done
  with End_of_file -> ()
