(** Codec for the NDJSON line protocol of [ocr stream] and for session
    journal files (docs/DYN.md documents the wire format).

    Requests are flat JSON objects, one per line, dispatched on their
    ["op"] field: the four update ops mirror {!Dyn.update} ([add_arc]'s
    ["transit"] defaults to 1; its optional ["arc"] field is the
    replay-check id), plus ["query"], ["epoch"], ["fingerprint"],
    ["telemetry"], ["metrics"] and ["quit"].  A ["query"] may carry an
    optional ["mode"] field ([{"mode":"exact"}]) requesting the exact
    rational certificate ([lambda_num]/[lambda_den]) alongside the
    float answer.  Fields an op does not name are ignored. *)

type never = |
(** The empty type: a field of type [never option] is always [None]. *)

type op =
  | Update of Dyn.update
  | Query of { q_eps : never option; q_exact : bool }
      (** [q_exact]: exact-answer mode.  [q_eps] is always [None]; it
          stays only because the benchmark harness
          (bench/e2e/corpus.ml, [query_line]) builds
          [Query { q_eps = None; ... }]. *)
  | Epoch
  | Fingerprint_op
  | Telemetry_op
  | Metrics_op
  | Quit

val parse : string -> (op, string) result
(** Parses one request line; the error string is ready to ship in an
    {!error_line}. *)

val render_update : Dyn.update -> string
(** Canonical journal line for an update ([parse] round-trips it). *)

val render_op : op -> string

val error_line : string -> string
(** [{"ok":false,"error":...}] — the structured error response; the
    stream continues after it. *)
