(** The engine's request model.

    A request is a graph plus a problem selection — cycle mean or
    cost-to-time ratio, minimize or maximize, a fixed algorithm or
    [Auto] (the deadline/portfolio policy of {!Engine}) — an optional
    per-request deadline, and a verify flag.

    The textual form, one request per line (used by [ocr batch] files
    and the [ocr serve] protocol), is

    {v <graph-file> [key=value ...] v}

    with keys [problem=mean|ratio], [objective=min|max],
    [algorithm=auto|exact|<name>], [mode=float|exact],
    [deadline-ms=<float>], [verify=true|false], [trace=<id>] (tracing
    context, stamped by the cluster router); omitted keys default to
    [problem=mean objective=min algorithm=auto mode=float verify=false]
    and no deadline.  [mode=exact] asks for the exact rational answer
    [lambda_num=/lambda_den=] alongside the float.  Blank lines and
    [#] comments are the caller's concern. *)

type algorithm_choice =
  | Auto
  | Fixed of Registry.algorithm
  | Exact  (** the exact lane: {!Newton}'s descent, unbudgeted *)

type mode =
  | Float_answer  (** the default: answer [lambda=] as a float *)
  | Exact_answer
      (** additionally answer the exact rational certificate
          [lambda_num=/lambda_den=], cross-checked against the witness
          cycle's integer sums ({!Verify.rational_certificate}) *)

type spec = {
  path : string;  (** graph file, or a label for in-memory requests *)
  problem : Solver.problem;
  objective : Solver.objective;
  algorithm : algorithm_choice;
  mode : mode;
  deadline_ms : float option;
  verify : bool;
  trace : int;
      (** distributed-tracing context ([trace=<id>] on the wire),
          propagated by the cluster router so worker engine spans
          carry the router's request trace id; 0 = untraced.  Absent
          from {!key}: tracing never changes cache identity. *)
}

val default_spec : string -> spec

val parse_spec : string -> (spec, string) result
(** Parse one request line (without any leading command word). *)

val spec_to_string : spec -> string
(** Round-trips through {!parse_spec}; omits defaulted keys. *)

type t = { id : int; spec : spec; graph : Digraph.t }

val make : id:int -> graph:Digraph.t -> spec -> t

type key = {
  fp : Fingerprint.t;
  kproblem : Solver.problem;
  kobjective : Solver.objective;
  kalgorithm : algorithm_choice;
  kmode : mode;
}
(** Cache identity: structural fingerprint × problem × objective ×
    algorithm choice × answer mode.  The answer
    mode is part of the key so exact answers (which carry a rational
    certificate) never alias float answers.  The deadline and verify
    flag are deliberately excluded — a cached result is served
    regardless of deadline, and verification is re-run per request. *)

val key : t -> key

val key_of : Fingerprint.t -> spec -> key
(** The key of a request with this spec on any graph with this
    fingerprint: [key r = key_of (Fingerprint.of_graph r.graph) r.spec]. *)

val problem_name : Solver.problem -> string
val objective_name : Solver.objective -> string
