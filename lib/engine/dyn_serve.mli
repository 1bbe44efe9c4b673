(** Engine driver for dynamic-graph sessions ([ocr stream]).

    Wraps one {!Dyn.t} with the engine's LRU result cache and
    telemetry.  Query answers are cached under the session's per-epoch
    structural {!Fingerprint}, so update streams that revisit an
    earlier graph (undo, A/B probing, replay) are served without
    re-solving, and hits/misses on the {e dynamic} path show up in the
    same telemetry counters as the batch engine's.  See docs/DYN.md for
    the protocol. *)

type t

val create : ?cache_size:int -> ?journal:(string -> unit) -> Dyn.t -> t
(** [cache_size] (default 256; 0 disables) bounds the per-session
    result cache.  [journal], when given, receives one canonical
    protocol line per applied update and per query — a file sink makes
    an [ocr stream --replay]able journal. *)

val session : t -> Dyn.t
val telemetry : t -> Telemetry.t

val metrics_snapshot : t -> Metrics.t
(** Every row of the {!Telemetry} table, as [Engine.metrics_snapshot]
    has them — the per-query [ocr_solve_latency_ms] histogram is
    recorded on every query, cache hits included, independent of the
    tracing switch — then the [ocr_cache_entries] gauge. *)

val metrics_line : t -> string
(** One-line NDJSON metrics digest — the reply to the ["metrics"]
    protocol op, also used by [ocr stream --metrics-every]. *)

val handle : t -> string -> [ `Reply of string | `Quit ]
(** Processes one request line.  Malformed or failing requests yield a
    structured [{"ok":false,...}] reply and leave the session
    untouched — the stream always continues until ["quit"] or EOF. *)
