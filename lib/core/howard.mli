(** Howard's algorithm (policy iteration), in the improved form of
    Figure 1 of the paper (after Cochet-Terrasson, Cohen, Gaubert,
    McGettrick & Quadrat, 1997).

    Maintains a {e policy} — one out-arc per node — whose functional
    graph is evaluated each iteration: the best policy cycle gives the
    current λ, node distances are propagated backwards from that cycle,
    and every arc is then tested for an improvement.  The only known
    worst-case bounds are pseudopolynomial (O(Nm) for N the product of
    out-degrees; the paper adds O(nmα) and O(n²m(w_max−w_min)/ε)), yet
    it is by far the fastest algorithm in the study.

    The steady-state loop is a zero-allocation kernel: the node
    distances, the policy-reverse adjacency (counting-sorted each
    iteration), the backward-BFS ring, and the sweep winner tables all
    live in unboxed {!Bigarray.Array1} scratch — off the OCaml heap,
    invisible to the GC, and shareable across domains without copying —
    and the candidate cycle in reusable int arrays; lists are
    materialized only on return (see docs/PERF.md for the layout and
    the domain-sharing safety argument).

    The per-arc improvement test is chunkable: every entry point takes
    an optional executor [pool], and with a multi-worker pool on a
    large enough graph the arc range is split into chunks swept
    concurrently, one scratch winner table per chunk.  Candidates are
    evaluated against the node distances frozen at the start of the
    sweep, and the per-chunk winners are merged deterministically —
    smallest candidate first, lowest arc id on ties — so the sweep's
    outcome (policy, distances, operation counts, and therefore the
    whole solve) is bit-identical for every chunk and job count,
    including the serial path.  This is what makes [--jobs] pay off on
    a single giant SCC, where the per-component fan-out of
    {!Solver.solve} has nothing to parallelize (bench E14).

    The iteration runs in floating point exactly as published; on
    convergence the best policy cycle is handed to
    {!Critical.improve_to_optimal}, so the returned value is the exact
    optimum with a witness cycle regardless of rounding.

    Preconditions: strongly connected input with at least one arc; for
    the ratio form, every cycle must have positive total transit
    time. *)

type init = [ `Cheapest_arc | `First_arc | `Random of int ]
(** Initial policy choice: the improved initialization of Figure 1
    (cheapest out-arc, the default), the naive first-out-arc policy, or
    a seeded random policy (unbiased per-node arc draw) — ablated in
    bench E9. *)

type scratch
(** The kernel's preallocated workspace.  Passing the same scratch to
    repeated solves (any solve loop) skips re-allocating the per-node
    arrays; it grows monotonically to the largest instance seen.  A
    scratch must not be shared between concurrently running solves
    (one per domain). *)

val create_scratch : unit -> scratch
(** An empty workspace; arrays are sized lazily on first use. *)

val minimum_cycle_mean :
  ?stats:Stats.t -> ?budget:Budget.t -> ?epsilon:float -> ?init:init ->
  ?scratch:scratch -> ?pool:Executor.t -> ?sweep_min_arcs:int ->
  Digraph.t -> Ratio.t * int list
(** [epsilon] is the improvement threshold of Figure 1 (relative to the
    weight scale; default [1e-9]).  [budget] is ticked once per policy
    iteration (on the coordinating domain only — chunk tasks never
    touch it); see {!Budget}.

    [pool] parallelizes the improvement sweep across the executor's
    workers; [sweep_min_arcs] is the arcs-per-chunk grain of the split
    (default {!Executor.chunk_arcs}[ ()], i.e. [OCR_CHUNK_ARCS] or
    4096): the sweep uses [min jobs (m / grain)] chunks, so a graph
    under twice the grain stays serial — below that the fan-out
    overhead outweighs the sweep (see docs/PERF.md, "Granularity").
    The answer, and every counter in [stats], is bit-identical with and
    without a pool.  The pool may be shared with the per-component
    fan-out of {!Solver.solve}: its help-first waiting makes the
    nesting deadlock-free.
    @raise Budget.Exceeded when the budget runs out mid-solve. *)

val minimum_cycle_ratio :
  ?stats:Stats.t -> ?budget:Budget.t -> ?epsilon:float -> ?init:init ->
  ?scratch:scratch -> ?pool:Executor.t -> ?sweep_min_arcs:int ->
  Digraph.t -> Ratio.t * int list
(** Cost-to-time ratio form: policy values use [w − λ·t]. *)
