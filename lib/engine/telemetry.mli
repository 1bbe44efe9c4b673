(** Engine telemetry: the table of every counter the batch engine and
    the stream sessions keep, the store that holds them, and its views.

    Each counter is declared once, as a {!row} giving its Prometheus
    name and its {!kind}.  A store ({!t}) is a {!Metrics} registry with
    one cell per row, so the Prometheus exposition ({!snapshot}) lists
    every row, and {!to_csv}, {!to_json} and {!pp_summary} read the
    same cells.  The CSV/JSON key of a row is its name without the
    [ocr_] prefix and the [_total] suffix (the latency row keeps its
    key [wall_ms] that the CSV and JSON have always used).  Adding a
    counter is adding a row.

    Following the per-domain-instances rule, a store is never shared
    across domains: the coordinating thread records into its store
    directly, each solve task records into a shard of its own from
    {!create}, and the coordinator folds the shard in with
    {!merge_into} at the join — in request-id order, so every counter
    is deterministic regardless of the [--jobs] setting.  Wall times
    are the only nondeterministic values and are excluded from
    {!pp_summary}. *)

type kind =
  | Count  (** an int counter *)
  | Portfolio
      (** an int counter that the CSV/JSON list after the other counts *)
  | Ms  (** wall time in ms, a histogram; the CSV/JSON print its sum *)
  | Op of (Stats.t -> int)  (** an int counter fed by {!record_ops} *)
  | Per_alg of kind
      (** one [Count] or [Ms] series per algorithm: the [*] in the row's
          name stands for the algorithm name *)

type row = private { name : string; key : string; kind : kind; idx : int }

(** {1 The table} *)

val requests : row
val solved : row
val cache_hits : row
val cache_misses : row

val collisions : row
(** cache hits invalidated by verification *)

val verify_hit_potentials : row
(** [verify=true] cache hits certified by the entry's stored potentials
    in one pass over the arcs *)

val verify_hit_probes : row
(** [verify=true] cache hits certified by the full probe instead (no
    stored potentials, or they failed the check); a hit whose
    certificate fails is counted as a collision only *)

val acyclic : row
val timeouts : row
val rejected : row

val fallbacks : row
(** portfolio steps taken past the first *)

val exact : row
(** answers carrying an exact rational certificate *)

val latency : row
(** [ocr_solve_latency_ms]: one observation per request, timed by the
    front-end that answers it. *)

val table : row list
(** Every row, in exposition order, the per-algorithm rows (runs,
    blowouts, wall ms) last. *)

val instantiate : string -> string -> string
(** [instantiate s alg] replaces the [*] of a per-algorithm row's name
    or key with [alg]. *)

(** {1 The store} *)

type t

val create : unit -> t
(** A store with every engine-wide row registered at zero. *)

val snapshot : t -> Metrics.t
(** A fresh copy of the store's registry — every row, in table order,
    then the per-algorithm series — for an exporter to extend. *)

val incr : t -> row -> unit
val add : t -> row -> int -> unit
val value : t -> row -> int

val observe : t -> row -> float -> unit
(** Record one wall time into an [Ms] row. *)

val histogram : t -> row -> Metrics.histogram

val record_ops : t -> Stats.t -> unit
(** Adds every [Op] row's field of the record. *)

val record_run : t -> string -> wall_ms:float -> unit

val record_blowout : t -> string -> wall_ms:float -> unit
(** Also counts a portfolio fallback. *)

val merge_into : into:t -> t -> unit
(** Fold a shard into a store. *)

(** {1 Views} *)

val hit_rate : t -> float
(** [cache_hits / requests]; 0 on an empty store. *)

val pp_summary : Format.formatter -> t -> unit
(** Deterministic counters only (no wall times), one [key=value] group
    per line. *)

val to_csv : t -> string
(** [metric,value] lines: the engine-wide rows grouped by kind, then
    each algorithm's rows, algorithms sorted by name. *)

val to_json : t -> string
(** The same, as one object, with each algorithm's rows nested in the
    ["algorithms"] array. *)
