type never = |

type op =
  | Update of Dyn.update
  | Query of { q_eps : never option; q_exact : bool }
      (* [q_exact]: also answer the exact rational certificate.  [q_eps]
         is always [None]; the field stays because bench/e2e/corpus.ml
         builds [Query { q_eps = None; ... }]. *)
  | Epoch
  | Fingerprint_op
  | Telemetry_op
  | Metrics_op
  | Quit

let parse line =
  match Njson.parse_flat line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok fields -> (
    let int_field ?default name k =
      match Njson.field_int fields name with
      | Some v -> k v
      | None -> (
        match default with
        | Some v -> k v
        | None -> Error (Printf.sprintf "missing int field %S" name))
    in
    match Njson.field_string fields "op" with
    | None -> Error "missing string field \"op\""
    | Some "set_weight" ->
      int_field "arc" (fun arc ->
          int_field "weight" (fun weight ->
              Ok (Update (Dyn.Set_weight { arc; weight }))))
    | Some "set_transit" ->
      int_field "arc" (fun arc ->
          int_field "transit" (fun transit ->
              Ok (Update (Dyn.Set_transit { arc; transit }))))
    | Some "add_arc" ->
      int_field "src" (fun src ->
          int_field "dst" (fun dst ->
              int_field "weight" (fun weight ->
                  int_field ~default:1 "transit" (fun transit ->
                      int_field ~default:(-1) "arc" (fun arc ->
                          Ok
                            (Update
                               (Dyn.Add_arc { arc; src; dst; weight; transit })))))))
    | Some "remove_arc" ->
      int_field "arc" (fun arc -> Ok (Update (Dyn.Remove_arc { arc })))
    | Some "query" -> (
      let query q_exact = Ok (Query { q_eps = None; q_exact }) in
      match Njson.field fields "mode" with
      | None -> query false
      | Some _ -> (
        match Njson.field_string fields "mode" with
        | Some "float" -> query false
        | Some "exact" -> query true
        | _ -> Error "field \"mode\" must be \"float\" or \"exact\""))
    | Some "epoch" -> Ok Epoch
    | Some "fingerprint" -> Ok Fingerprint_op
    | Some "telemetry" -> Ok Telemetry_op
    | Some "metrics" -> Ok Metrics_op
    | Some "quit" -> Ok Quit
    | Some other -> Error (Printf.sprintf "unknown op %S" other))

let render_update u =
  let i = string_of_int in
  match u with
  | Dyn.Set_weight { arc; weight } ->
    Njson.obj
      [ ("op", {|"set_weight"|}); ("arc", i arc); ("weight", i weight) ]
  | Dyn.Set_transit { arc; transit } ->
    Njson.obj
      [ ("op", {|"set_transit"|}); ("arc", i arc); ("transit", i transit) ]
  | Dyn.Add_arc { arc; src; dst; weight; transit } ->
    Njson.obj
      [ ("op", {|"add_arc"|}); ("src", i src); ("dst", i dst);
        ("weight", i weight); ("transit", i transit); ("arc", i arc) ]
  | Dyn.Remove_arc { arc } ->
    Njson.obj [ ("op", {|"remove_arc"|}); ("arc", i arc) ]

let render_op = function
  | Update u -> render_update u
  | Query { q_exact = false; _ } -> Njson.obj [ ("op", {|"query"|}) ]
  | Query { q_exact = true; _ } ->
    Njson.obj [ ("op", {|"query"|}); ("mode", {|"exact"|}) ]
  | Epoch -> Njson.obj [ ("op", {|"epoch"|}) ]
  | Fingerprint_op -> Njson.obj [ ("op", {|"fingerprint"|}) ]
  | Telemetry_op -> Njson.obj [ ("op", {|"telemetry"|}) ]
  | Metrics_op -> Njson.obj [ ("op", {|"metrics"|}) ]
  | Quit -> Njson.obj [ ("op", {|"quit"|}) ]

let error_line msg = Njson.obj [ ("ok", "false"); ("error", Njson.escape msg) ]
