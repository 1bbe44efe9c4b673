(** The exact lane under its original name.

    The Stern–Brocot mediant walk that answered [algorithm=exact] is
    gone; both entry points now run {!Newton.descent} with
    [who = "Stern_brocot"], so their answers, errors and budget ticks
    are the descent's.  They stay only because the end-to-end replay's
    [Stern_brocot.solve.ms_p50] metric and bench E18 call them by name;
    new code calls {!Newton}. *)

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
