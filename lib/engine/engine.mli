(** The batch solve engine: parallel execution over an {!Executor}
    pool, an LRU result cache keyed by structural {!Fingerprint}s, and
    a deadline-aware algorithm portfolio for [Auto] requests.

    {b Determinism.}  Engine results are indistinguishable from a fresh
    [Solver.solve] on the same request: the engine reuses
    [Solver.preflight] and runs each portfolio attempt through
    [Solver.solve_partition], the very per-component loop of
    [Solver.solve].  Batches are deduplicated by cache key at
    submission and collected in request order, so response lines and
    cache hit/miss counters are byte-identical across [--jobs]
    settings (only wall times vary, and {!response_line} omits them by
    default).

    {b Portfolio.}  [Auto] requests run Howard under an iteration
    budget, falling back to HO (level budget) and finally Karp2
    (unbudgeted, so the portfolio always terminates exactly).  A
    per-request deadline is a shared absolute wall-clock bound across
    all attempts and SCC subtasks; exceeding it yields [Timeout] with
    the best partial result over completed components. *)

type cache_entry =
  | E_exact of {
      e_lambda : Ratio.t;
      e_cycle : int list;
      e_components : int;
      e_algorithm : string;
      e_cert : Ratio.t option;
          (** the mode=exact rational certificate, when one was computed;
              kept in the entry because exact and float answers live
              under distinct cache keys ([Request.key.kmode]) *)
    }
  | E_approx of {
      a_lo : Ratio.t;
      a_hi : Ratio.t;
      a_cycle : int list;
      a_eps : float;
      a_scale : float;
      a_components : int;
      a_tests : int;
      a_rounds : int;
      a_converged : bool;
    }

type outcome =
  | Solved of {
      lambda : Ratio.t;  (** optimum, in the request's objective sign *)
      cycle : int list;  (** witness cycle, arc ids of the request graph *)
      components : int;  (** nontrivial SCCs examined *)
      algorithm : string;
          (** the algorithm that produced it — a {!Registry.name}, or a
              lane name such as ["exact"] *)
      cached : bool;  (** served from the LRU / batch dedup *)
      fallbacks : int;  (** portfolio steps taken past the first *)
      certified : bool;  (** [Verify.certify] passed (verify requests) *)
      exact : Ratio.t option;
          (** [mode=exact] requests: λ* recomputed from the witness
              cycle's integer weight/transit sums
              ({!Verify.rational_certificate}), never from the solver's
              iterate.  Always canonical: [den > 0], [gcd = 1]. *)
    }
  | Approximate of {
      lo : Ratio.t;  (** certified: [lo <= λ* <= hi], objective sign *)
      hi : Ratio.t;
      cycle : int list;  (** witness attaining the achievable endpoint *)
      eps : float;  (** requested relative tolerance *)
      scale : float;  (** width target was [eps·scale] *)
      components : int;
      tests : int;  (** binary-search λ-tests *)
      rounds : int;  (** value-iteration rounds *)
      certified : bool;  (** width target reached (budget didn't cut in) *)
      cached : bool;
      fallback : bool;  (** served by the Auto deadline fallback *)
      verified : bool;  (** witness recheck passed (verify requests) *)
    }
      (** a certified ε-interval from the approx lane: algorithm=approx
          requests, or Auto requests with approx-eps whose deadline the
          exact portfolio missed *)
  | Acyclic  (** no cycle exists; mirrors [ocr solve] exit 2 *)
  | Timeout of { partial : Ratio.t option; attempted : string list }
      (** deadline fired; [partial] is the best bound over completed
          components, [attempted] the algorithms tried in order *)
  | Rejected of string  (** preflight or certification failure *)

type response = {
  id : int;
  path : string;
  outcome : outcome;
  wall_ms : float;
}

type t

val create : ?jobs:int -> ?cache_size:int -> ?now:(unit -> float) -> unit -> t
(** [jobs] defaults to 1 (inline, no domains); [cache_size] to 256
    entries ([<= 0] disables caching); [now] to [Unix.gettimeofday]
    and is injectable for tests. *)

val jobs : t -> int

val pool : t -> Executor.t
(** The engine's executor — shareable with co-hosted [Dyn] sessions
    (cluster workers run the batch engine and their sticky dyn
    sessions on one pool) so a process never oversubscribes domains. *)

val resize_cache : t -> int -> unit
(** Re-budget the result LRU in place ({!Lru.resize} semantics). *)

val telemetry : t -> Telemetry.t
(** The engine's counter store, cumulative over its lifetime; read it
    only from the thread driving {!solve} / {!run_batch}. *)

val metrics_snapshot : t -> Metrics.t
(** A fresh registry holding every row of the {!Telemetry} table — the
    cumulative counters, the [ocr_solve_latency_ms] histogram (always
    recorded, independent of the tracing switch) and the per-algorithm
    series — then the executor pool-health sample.  Export with
    {!Metrics.to_prometheus} or {!Metrics.pp_summary}; call it from the
    coordinator thread only. *)

val solve : t -> Request.t -> response
(** Serve one request: probe the cache (re-certifying the hit against
    the request's actual graph when [verify] is set — a failing
    certificate is counted as a fingerprint collision and re-solved),
    else solve fresh, fanning nontrivial SCCs across the pool, and
    insert the result. *)

val solve_path : t -> id:int -> Request.spec -> (response, string) result
(** Serve one request naming a graph file — the [ocr serve] and
    cluster-worker path.  The engine remembers, per path, the
    fingerprint of the bytes it last parsed under the file's [stat]
    identity ({!File_table}, bounded by [cache_size]).  When the
    identity still matches, [verify] is off and the LRU holds the key,
    the answer costs one [stat]: the file is not opened.  Otherwise the
    file is read ([engine.load] span) and the request goes through
    {!solve}.  [Error msg] is a file that cannot be read or parsed. *)

val run_batch : t -> Request.t list -> response list
(** Solve a batch: requests are deduplicated by cache key, unique
    misses run in parallel across the pool, and responses come back in
    request order.  Duplicates and cache hits report [cached=true]. *)

val response_line : ?wall:bool -> response -> string
(** One-line rendering, deterministic by default; [~wall:true] appends
    the (nondeterministic) wall time. *)

val shutdown : t -> unit
