(** Exact optimum by Stern–Brocot (mediant) search.

    A verification-grade solver: λ* is found purely through exact integer
    negative-cycle probes ({!Critical.locate}) guided by the
    Stern–Brocot tree, without the float iterates of Howard/Lawler —
    an independent computation path for auditing their answers.  The
    denominator of λ* is at most [n] for cycle means and at most the
    total transit time for cost-to-time ratios, which bounds the tree
    descent; witness cycles returned by Above probes accelerate the
    walk the way the improved Lawler search does.  See docs/EXACT.md.

    The engine answers [algorithm=exact] requests with it.

    Both entry points assume a strongly connected input with at least
    one arc (use the engine or {!Solver}-style per-SCC decomposition
    for arbitrary graphs); [pool] is accepted for interface uniformity
    and ignored — every probe is one sequential Bellman–Ford. *)

val minimum_cycle_mean :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** @raise Invalid_argument on a graph with no arcs or no cycle.
    @raise Budget.Exceeded when the supplied budget runs out (ticked
    once per probe). *)

val minimum_cycle_ratio :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** @raise Invalid_argument additionally if some cycle has zero total
    transit time. *)
