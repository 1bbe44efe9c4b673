type algorithm_choice = Auto | Fixed of Registry.algorithm | Exact

type mode = Float_answer | Exact_answer

type spec = {
  path : string;
  problem : Solver.problem;
  objective : Solver.objective;
  algorithm : algorithm_choice;
  mode : mode;
  deadline_ms : float option;
  verify : bool;
  trace : int;
      (* distributed-tracing context propagated by the cluster router
         (0 = untraced).  Deliberately NOT part of [key]: tracing a
         request must not change its cache identity. *)
}

let default_spec path =
  {
    path;
    problem = Solver.Cycle_mean;
    objective = Solver.Minimize;
    algorithm = Auto;
    mode = Float_answer;
    deadline_ms = None;
    verify = false;
    trace = 0;
  }

type t = { id : int; spec : spec; graph : Digraph.t }

let make ~id ~graph spec = { id; spec; graph }

type key = {
  fp : Fingerprint.t;
  kproblem : Solver.problem;
  kobjective : Solver.objective;
  kalgorithm : algorithm_choice;
  kmode : mode;
}

let key_of fp spec =
  {
    fp;
    kproblem = spec.problem;
    kobjective = spec.objective;
    kalgorithm = spec.algorithm;
    kmode = spec.mode;
  }

let key r = key_of (Fingerprint.of_graph r.graph) r.spec

let problem_name = function
  | Solver.Cycle_mean -> "mean"
  | Solver.Cycle_ratio -> "ratio"

let objective_name = function
  | Solver.Minimize -> "min"
  | Solver.Maximize -> "max"

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let parse_kv spec token =
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" token)
  | Some i ->
    let k = String.sub token 0 i in
    let v = String.sub token (i + 1) (String.length token - i - 1) in
    (match (String.lowercase_ascii k, String.lowercase_ascii v) with
    | ("problem" | "p"), "mean" -> Ok { spec with problem = Solver.Cycle_mean }
    | ("problem" | "p"), "ratio" ->
      Ok { spec with problem = Solver.Cycle_ratio }
    | ("problem" | "p"), _ ->
      Error (Printf.sprintf "problem must be mean or ratio, got %S" v)
    | ("objective" | "obj" | "o"), "min" ->
      Ok { spec with objective = Solver.Minimize }
    | ("objective" | "obj" | "o"), "max" ->
      Ok { spec with objective = Solver.Maximize }
    | ("objective" | "obj" | "o"), _ ->
      Error (Printf.sprintf "objective must be min or max, got %S" v)
    | ("algorithm" | "alg" | "a"), "auto" -> Ok { spec with algorithm = Auto }
    | ("algorithm" | "alg" | "a"), "exact" -> Ok { spec with algorithm = Exact }
    | ("algorithm" | "alg" | "a"), name -> (
      match Registry.of_name name with
      | Some a -> Ok { spec with algorithm = Fixed a }
      | None ->
        Error
          (Printf.sprintf
             "unknown algorithm %S (expected auto, exact or one of: %s)" v
             (String.concat ", " (List.map Registry.name Registry.all))))
    | "mode", "float" -> Ok { spec with mode = Float_answer }
    | "mode", "exact" -> Ok { spec with mode = Exact_answer }
    | "mode", _ ->
      Error (Printf.sprintf "mode must be float or exact, got %S" v)
    | ("deadline-ms" | "deadline"), _ -> (
      match float_of_string_opt v with
      | Some ms when ms >= 0.0 -> Ok { spec with deadline_ms = Some ms }
      | _ -> Error (Printf.sprintf "deadline-ms must be a float >= 0, got %S" v))
    | "verify", ("true" | "yes" | "1") -> Ok { spec with verify = true }
    | "verify", ("false" | "no" | "0") -> Ok { spec with verify = false }
    | "verify", _ ->
      Error (Printf.sprintf "verify must be true or false, got %S" v)
    | "trace", _ -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok { spec with trace = n }
      | _ ->
        Error
          (Printf.sprintf "trace must be a nonnegative integer, got %S" v))
    | _ ->
      Error
        (Printf.sprintf
           "unknown key %S (expected problem, objective, algorithm, mode, \
            deadline-ms, verify or trace)"
           k))

let parse_spec line =
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Error "empty request line"
  | path :: rest ->
    if String.contains path '=' then
      Error (Printf.sprintf "first token must be the graph file, got %S" path)
    else
      List.fold_left
        (fun acc token ->
          let* spec = acc in
          parse_kv spec token)
        (Ok (default_spec path)) rest

let spec_to_string s =
  let opts = [] in
  let opts =
    if s.trace <> 0 then Printf.sprintf "trace=%d" s.trace :: opts else opts
  in
  let opts =
    if s.verify then "verify=true" :: opts else opts
  in
  let opts =
    match s.deadline_ms with
    | Some ms -> Printf.sprintf "deadline-ms=%g" ms :: opts
    | None -> opts
  in
  let opts =
    match s.mode with
    | Float_answer -> opts
    | Exact_answer -> "mode=exact" :: opts
  in
  let opts =
    match s.algorithm with
    | Auto -> opts
    | Fixed a -> Printf.sprintf "algorithm=%s" (Registry.name a) :: opts
    | Exact -> "algorithm=exact" :: opts
  in
  let opts =
    match s.objective with
    | Solver.Minimize -> opts
    | Solver.Maximize -> "objective=max" :: opts
  in
  let opts =
    match s.problem with
    | Solver.Cycle_mean -> opts
    | Solver.Cycle_ratio -> "problem=ratio" :: opts
  in
  String.concat " " (s.path :: opts)
