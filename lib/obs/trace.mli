(** Span/event recording into preallocated per-domain ring buffers,
    and the Chrome/Perfetto trace-event exporter.

    Recording is lock-free (each domain writes only its own ring) and
    allocation-free; all recording entry points are no-ops while
    [Obs.enabled] is false.  Names are interned ints from
    {!Obs.intern}. *)

val begin_span : int -> unit
val end_span : int -> unit

val instant : int -> unit
(** A zero-duration event (ph ["i"] in the export). *)

val counter_int : int -> int -> unit
(** Sample a counter track (ph ["C"]).  The int is converted to float
    only after the enabled check, so disabled call sites stay
    allocation-free without a caller-side guard. *)

val counter : int -> float -> unit
(** Float variant of {!counter_int}.  In alloc-sensitive code guard
    the call with [if !Obs.enabled_flag then ...] — the float argument
    is boxed at the call boundary regardless of the flag. *)

val begin_span_id : int -> int -> unit
(** [begin_span_id name tag] opens a span carrying a request trace id.
    Tagged spans export as async events (ph ["b"]/["e"]) paired by the
    tag rather than by stack nesting, so spans of different requests
    may overlap on one track.  A [tag] of 0 is identical to
    {!begin_span}.  Like {!counter_int}, the int tag is converted to
    float only after the enabled check. *)

val end_span_id : int -> int -> unit

val instant_id : int -> int -> unit
(** Tagged instant: the export carries the tag as [args.trace] (and
    the multi-process merger keys per-request flows on it).  A tag of
    0 is identical to {!instant}. *)

val set_process : pid:int -> name:string -> unit -> unit
(** Declare this process's identity in multi-process traces: events
    export under the given Chrome [pid] with a [process_name] metadata
    record, and timestamps switch from rebased-to-first-record to
    absolute monotonic microseconds so {!Trace_read.merge} can align
    files from different processes.  The cluster router uses pid 0,
    worker [i] uses pid [i + 1]. *)

val set_clock_offset_ns : int -> unit
(** Record the clock offset measured against the router's monotonic
    clock (router_now_ns - local_now_ns, from the spawn handshake).
    Stamped into the export as a [clock_offset_ns] metadata record;
    {!Trace_read.merge} adds it to every timestamp of the file. *)

val configure : ?capacity:int -> unit -> unit
(** Drop all rings and start fresh; [capacity] (rounded up to a power
    of two, default 65536 records) applies to rings created after the
    call.  Also resets the process identity ({!set_process},
    {!set_clock_offset_ns}) to the standalone default.  Call before
    enabling tracing, never mid-recording. *)

val preallocate : unit -> unit
(** Eagerly allocate the calling domain's ring.  The ring is otherwise
    allocated inside the domain's first record, whose cost would skew
    the first traced request's phase timing; setup paths that stamp
    wall-clock phases against trace events (the cluster router) call
    this right after {!configure}. *)

type event = {
  ev_dom : int;
  ev_ts : int;
  ev_kind : [ `Begin | `End | `Instant | `Counter ];
  ev_id : int;
  ev_arg : float;
}

val events : unit -> event list
(** Snapshot: all surviving records, tracks in domain-id order,
    chronological within a track. *)

val recorded : unit -> int
(** Total records ever written (including overwritten ones). *)

val dropped : unit -> int
(** Records lost to ring wrap-around. *)

val to_chrome_json : unit -> string
(** Chrome trace-event JSON (the format Perfetto and about://tracing
    load): one thread track per domain, untagged spans as complete
    events (ph ["X"], microsecond [ts]/[dur]), tagged spans as async
    pairs (ph ["b"]/["e"] with the tag as [id] and [args.trace]),
    instants as ph ["i"], counter samples as ph ["C"].  After
    {!set_process} the events carry that pid, absolute timestamps and
    a [clock_offset_ns] metadata record. *)

val write_chrome_json : string -> unit
