(** The safe front-end for arbitrary graphs.

    Following §2 of the paper: the input is decomposed into strongly
    connected components, the chosen algorithm runs on every component
    that contains a cycle, and the best component optimum is returned
    ("this is the way we implemented all of the algorithms").
    Maximization is handled by weight negation. *)

type objective = Minimize | Maximize

type problem = Critical.problem =
  | Cycle_mean  (** optimize [w(C)/|C|] *)
  | Cycle_ratio  (** optimize [w(C)/t(C)] — the cost-to-time ratio *)

type report = {
  lambda : Ratio.t;  (** exact optimum over the whole graph *)
  cycle : int list;  (** witness cycle, arc ids of the input graph *)
  components : int;  (** number of cyclic SCCs solved *)
  stats : Stats.t;   (** operation counts accumulated over components *)
}

val preflight : problem:problem -> Digraph.t -> unit
(** The well-posedness checks of {!solve}, for front-ends that run
    {!solve_partition} or another solver directly — neither checks — and
    must reject exactly what {!solve} rejects.
    @raise Invalid_argument under the conditions documented on
    {!solve}. *)

val preflight_values :
  problem:problem ->
  n:int ->
  m:int ->
  max_abs_weight:int ->
  total_transit:int ->
  zero_transit_cycle:(unit -> bool) ->
  unit
(** {!preflight} over precomputed values of the instance: node and arc
    counts, the largest [|weight|], the total transit time (read only
    for [Cycle_ratio]) and whether some cycle has zero total transit
    time (called only for [Cycle_ratio]).  For callers that maintain
    these values incrementally; same conditions, same messages. *)

exception Deadline_exceeded of { partial : report option }
(** Raised by {!solve} when the supplied budget runs out.  Every
    component is attempted, serially and in parallel alike; [partial]
    is the best optimum over the components that completed (an upper
    bound on the true optimum for minimization, lower for
    maximization), or [None] if no component completed. *)

val solve :
  ?objective:objective ->
  ?problem:problem ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?pool:Executor.t ->
  algorithm:Registry.algorithm ->
  Digraph.t ->
  report option
(** [None] iff the graph is acyclic (no cycle to optimize).

    The graph is split into its cyclic strongly connected components by
    one O(n+m) partition sweep ({!Scc.partition}); with [jobs > 1] (a
    private pool of [jobs-1] domains plus the calling thread) or an
    externally managed [pool], independent components solve
    concurrently.  The same pool is handed down into each component
    solve, so with [algorithm = Howard] the per-arc improvement sweep
    inside a large component is also chunked across the workers
    ({!Howard.minimum_cycle_mean}) — this is what makes [jobs] pay off
    on a single giant SCC, where the component fan-out alone has
    nothing to parallelize.  The reduction is deterministic: the
    chunked sweep merges winners by (candidate, lowest arc id) and
    per-component results are folded in component order with the serial
    loop's exact tie-breaking, so the report — λ, witness cycle, merged
    stats — is bit-identical for every job count.  Default [jobs = 1]
    runs inline with no domain spawned.

    [budget] bounds the work: the clock is checked before every
    component and budget-supporting algorithms
    ({!Registry.supports_budget}) tick it mid-solve (the iteration
    counter is atomic, so one budget governs the whole pool);
    exhaustion raises {!Deadline_exceeded} carrying the partial result.

    @raise Invalid_argument for [Cycle_ratio] if some cycle has zero
    total transit time (the ratio is then ill-defined), when the
    weight magnitudes are so large that the exact native-int rational
    arithmetic could overflow (roughly [|w| · D² < 2⁵⁹] is required,
    with [D] = node count for means and total transit time for
    ratios — far beyond the paper's [1..10000] weights at any
    realistic size), or if [jobs < 1]. *)

val solve_partition :
  ?pool:Executor.t ->
  budget:(unit -> Budget.t option) ->
  Registry.exact_solver ->
  Scc.subproblem array ->
  report option * Budget.cause option
(** The per-component loop of {!solve} over cyclic SCC subproblems of a
    graph already in min form (weights negated for maximization): one
    {!Fanout.run} over the components, with [budget ()] called once per
    component and checked before it starts.  The report holds the
    min-form optimum over the components that completed, their count
    and merged stats, with witnesses mapped back to the partitioned
    graph's arc ids; [None] if none completed.  The cause is
    {!Fanout.run}'s. *)

(** {1 Convenience wrappers} — default algorithm {!Registry.Howard},
    the study's overall winner. *)

val minimum_cycle_mean :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val maximum_cycle_mean :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val minimum_cycle_ratio :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option

val maximum_cycle_ratio :
  ?algorithm:Registry.algorithm -> ?jobs:int -> Digraph.t -> report option
