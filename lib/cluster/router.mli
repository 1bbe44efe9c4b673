(** The cluster router: fans the serve/stream protocols out over N
    shared-nothing worker processes.

    The router re-execs the current binary in the hidden
    [cluster-worker] mode N times, holding a pipe pair per worker, and
    multiplexes one client channel (stdin/stdout for [ocr cluster])
    against all of them with [select]:

    - {b one-shot solve requests} ([<graph-file> key=value ...] lines)
      are routed by the SplitMix64 structural fingerprint of their
      graph (remembered per path in a {!File_table}, checked by one
      [stat] per request) through the rendezvous
      {!Shard_map}, so identical graphs land on the worker whose LRU
      already holds them, and worker loss reshuffles only the dead
      worker's keys;
    - {b dyn-session streams} ([{"op":"open","session":...,...}], then
      stream-protocol lines carrying the [session] field) are sticky:
      the session is pinned to one worker at open time and its
      journaled overlay stays worker-local;
    - {b admission}: a solve line that does not parse, or a request
      routed to a full worker (bounded in-flight queue), is answered by
      the router in its protocol's own error grammar —
      {!Serve_loop.error_reply} for solves, {!Dyn_protocol.error_line}
      for session ops — and never reaches a worker;
    - {b robustness}: a per-worker service timeout that SIGKILLs a hung
      worker, EOF-based crash detection, automatic respawn, and
      dyn-session recovery on the replacement worker by replaying the
      router's copy of each session's update journal (the same journal
      lines [ocr stream --replay] accepts);
    - {b observability}: the [metrics] line broadcasts to all up
      workers, parses each reply with {!Metrics.of_prometheus}, merges
      the shards deterministically (router registry first, then
      workers in id order) and answers one cluster-wide Prometheus
      exposition including [ocr_worker_up{worker="i"}], queue-depth
      and restart-count series plus the router's always-on per-worker
      latency histograms [ocr_queue_wait_ms{worker="i"}] and
      [ocr_request_total_ms{worker="i"}]; [status] answers one flat
      JSON line with per-worker pid/up/queue/restarts.  With
      [trace_dir] set the router also records distributed traces and
      with [access_log] a structured NDJSON access log (see
      {!type:config}).

    Responses are matched to requests FIFO per worker (workers are
    serial); solve responses are rewritten to the router's global
    request id, session replies already carry their session id.  An
    answer at admission can overtake earlier requests still in flight. *)

type config = {
  exe : string;  (** binary to re-exec (the running [ocr]) *)
  workers : int;
  jobs : int;  (** per-worker domain parallelism *)
  cache_size : int;  (** total LRU entries, divided across workers *)
  queue_depth : int;  (** per-worker in-flight bound; excess is shed *)
  request_timeout_ms : float;
      (** max service time at a worker's queue head before the worker
          is presumed hung and SIGKILLed ([<= 0] disables) *)
  drain_timeout_ms : float;  (** shutdown grace for in-flight work *)
  wall : bool;  (** append wall times to solve responses *)
  metrics_file : string option;
      (** write the final aggregated exposition here on shutdown *)
  trace_dir : string option;
      (** enable cross-process request tracing: the router assigns each
          request a trace id (its global request id), records its own
          phase spans under it, propagates it to the worker as a
          [trace=<id>] key on the forwarded line, and on shutdown writes
          [router.json] plus one [worker-<i>.json] per worker into this
          directory — per-process Chrome trace files that
          [ocr trace merge] aligns into one timeline using the
          clock-offset handshake each worker answers at spawn *)
  access_log : string option;
      (** append one NDJSON line per request, answered or refused (trace id,
          worker, shard key, cache hit, queue depth at admission,
          per-phase ms, status); an unusable path or failed write is
          logged and the log disabled, never the router *)
}

val config :
  ?exe:string -> ?jobs:int -> ?cache_size:int -> ?queue_depth:int ->
  ?request_timeout_ms:float -> ?drain_timeout_ms:float -> ?wall:bool ->
  ?metrics_file:string -> ?trace_dir:string -> ?access_log:string ->
  workers:int -> unit -> config
(** Defaults: [exe = Sys.executable_name], [jobs = 1],
    [cache_size = 256] (total), [queue_depth = 64],
    [request_timeout_ms = 30_000], [drain_timeout_ms = 5_000],
    [wall = false], no metrics file, tracing and access log off.
    @raise Invalid_argument if [workers < 1]. *)

val run : config -> Unix.file_descr -> out_channel -> unit
(** Serve the client on the given fd (read side) / channel (write
    side) until [quit] or EOF, then drain and shut the workers down.
    Ignores SIGPIPE for the whole process. *)
