(** Exact optimum by Newton's (Dinkelbach's) descent.

    Starts from the best cycle, by exact ratio, of the cheapest-out-arc
    policy (Howard's Figure 1 initialization) and repeats one exact
    integer negative-cycle probe ({!Critical.locate}) per step, moving
    to the negative cycle the probe returns until it answers Optimal —
    {!Critical.improve_to_optimal} from a good start.  No float ever
    enters the answer, so the descent is an integer-only audit path
    independent of the float iterates of Howard and Lawler.  The number
    of probes is strongly polynomial (Radzik, 1992); on the served
    families it is 1-9 per component.

    The witness is the tight-arc cycle of the closing probe at λ*,
    which depends on the graph alone: the answer equals
    {!Howard.minimum_cycle_mean}/[_ratio]'s (λ, witness) pair exactly.
    The engine runs the descent first on [Auto] requests and as the
    whole [algorithm=exact] lane; see docs/ENGINE.md and docs/EXACT.md.

    Both entry points assume a strongly connected input with at least
    one arc; [pool] is accepted for interface uniformity and ignored —
    every probe is one sequential Bellman–Ford.  A traced solve records
    one [newton.solve] span around its probes' [bf.run] spans. *)

val descent :
  ?stats:Stats.t -> ?budget:Budget.t -> who:string ->
  problem:Critical.problem -> Digraph.t -> Ratio.t * int list
(** The descent for either problem.  [stats.iterations] and
    [stats.oracle_calls] count its probes, [stats.relaxations] their
    Bellman–Ford updates and [stats.cycles_examined] the start policy's
    cycles.  [who] prefixes the error messages.
    @raise Invalid_argument ["<who>: graph has no arcs"] or
    ["<who>: input graph is acyclic"], and for [Cycle_ratio] if some
    cycle has zero total transit time.
    @raise Budget.Exceeded when the budget runs out (ticked once per
    probe). *)

val minimum_cycle_mean :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** [descent ~who:"Newton" ~problem:Cycle_mean]. *)

val minimum_cycle_ratio :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** [descent ~who:"Newton" ~problem:Cycle_ratio]. *)
