(** Metrics registry: named counters, gauges and log2-bucketed
    histograms, with Prometheus text exposition and a human summary.

    A registry is single-domain by design — concurrent tasks record
    into their own shard and the coordinator merges shards at the join
    in task order ({!merge_into}), the same per-domain-instances rule
    Stats follows, so merged values are deterministic for
    every job count.  Find-or-create registration is setup-path work;
    recording into an obtained cell is O(1) and allocation-free. *)

type counter
type gauge
type histogram
type t

val create : unit -> t

val counter : t -> string -> counter
(** Find or create.  Raises [Invalid_argument] if the name is already
    registered with a different kind (same for {!gauge} and
    {!histogram}). *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation: bucket [i] holds values in
    [(2^(i-1), 2^i]] (bucket 0: [<= 1]); the last of the 63 buckets
    catches everything larger. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_max : histogram -> float
val hist_mean : histogram -> float

val quantile : histogram -> float -> float
(** Upper-bound estimate of the q-quantile: the smallest bucket
    boundary (a power of two) at or above it.  0 when empty. *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters and histograms add, a set gauge
    overwrites.  Deterministic given a deterministic merge order. *)

val merge : t -> t -> t

val to_prometheus : t -> string
(** Prometheus text exposition (format 0.0.4): [# TYPE] lines,
    cumulative [le]-labelled histogram buckets with the mandatory
    [+Inf] bucket, [_sum] and [_count].

    Metric names may embed a label part
    ([ocr_worker_up{worker="0"}], [ocr_queue_wait_ms{worker="0"}]):
    the base name is sanitized, the label part is emitted verbatim (it
    must not contain spaces, or commas inside label values), and
    series sharing a base share one [# TYPE] line.  For a labeled
    histogram the [le] label is appended after the series labels on
    bucket lines. *)

val of_prometheus : string -> (t, string) result
(** Parses {!to_prometheus} output back into a fresh registry — the
    merge entry point for aggregating per-process snapshots shipped as
    text (an [ocr cluster] router folds its workers' expositions
    together with {!merge_into}).  Counters and gauges round-trip
    exactly; histograms round-trip their bucket counts, [_sum] and
    [_count], while the max — absent from the wire format — is
    restored as the upper bound of the top non-empty bucket. *)
