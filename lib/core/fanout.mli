(** One component fan-out: the per-SCC loop every front-end shares.

    §2 of the paper solves an instance component by component and keeps
    the best optimum; {!Solver}, the batch engine, {!Dyn}'s incremental
    re-solve and the approximation lane all run that loop through
    {!run}, and all reduce it with {!best}.  The combinator owns the
    placement policy between its two levels of parallelism (items across
    the pool, and the pool handed down into one item's solve), the
    budget-error merge, and the per-item [solver.component] span with
    its [solver.component_arcs] counter. *)

val serial : ?pool:Executor.t -> int -> bool
(** [serial ?pool k] is [true] when {!run} over [k] items stays on the
    calling domain: at most one item, no pool, or a single-worker
    pool.  Such a run passes the caller's [pool] down to every item, so
    an item can still chunk its own work. *)

val placement : jobs:int -> int array -> bool array
(** [placement ~jobs arcs] decides, for a pooled fan-out over items of
    [arcs.(i)] arcs on a [jobs]-worker pool, which items also get the
    pool for their own nested parallelism: every item when the fan-out
    leaves workers idle (fewer items than [jobs]), otherwise only an
    item holding at least half of the total arcs — one giant SCC among
    crumbs, where chunking inside the giant is the only win.  Pure
    placement: results are bit-identical either way. *)

val run :
  ?pool:Executor.t ->
  arcs:('a -> int) ->
  (?pool:Executor.t -> 'a -> 'b) ->
  'a array ->
  'b option array * Budget.cause option
(** [run ?pool ~arcs solve items] solves every item and returns the
    results in item order, whatever order the workers finished in.  An
    item whose solve raised {!Budget.Exceeded} is [None]; every other
    item is still attempted, serially and pooled alike.  The cause is
    [Deadline] if any item missed the deadline, else [Iterations] if
    any ran out of iterations.  Off the {!serial} path the items run as
    {!Executor.async} tasks and item [i] gets the pool iff
    {!placement} grants it.  Any other exception propagates.

    Tasks must not share mutable state: give every item its own
    {!Stats.t} and merge at the join. *)

val best : key:('b -> Ratio.t) -> 'b option array -> 'b option
(** The completed item with the least [key], scanning in item order;
    a tie keeps the earlier item. *)

val with_pool : ?pool:Executor.t -> jobs:int -> (Executor.t option -> 'a) -> 'a
(** [with_pool ?pool ~jobs f]: [f pool] when a pool is given, [f None]
    when [jobs = 1], else [f] on a private [jobs]-way pool that is shut
    down when [f] returns or raises.
    @raise Invalid_argument if [jobs < 1] and no pool is given. *)
