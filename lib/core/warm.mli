(** Shared warm-start core for repeated Howard re-solves.

    Both warm-start clients — {!Incremental} (strongly connected,
    label-only updates) and the dynamic session subsystem [Dyn]
    (`lib/dyn/`, arbitrary graphs, structural updates) — route their
    per-component re-solves through this module, so the two paths
    cannot diverge: the policy-repair rule and the warm Howard entry
    points live here and nowhere else.

    The key property the clients rely on: Howard's exact finisher
    ({!Critical.improve_to_optimal}) makes the returned (λ, witness)
    pair a function of the graph alone — the terminal location pass at
    the optimum λ* runs a deterministic Bellman–Ford plus tight-arc
    cycle search that does not depend on the starting cycle — so a
    warm-started solve returns the {e same} optimum and the {e same}
    witness as a cold solve; only the iteration counts differ. *)

val repair_policy : Digraph.t -> int array -> unit
(** [repair_policy g policy] rewrites, in place, every entry of
    [policy] that is not a valid out-arc choice for its node — negative
    ids, out-of-range ids, and arcs that no longer leave the node — to
    the node's cheapest out-arc (lowest arc id on ties, matching
    Howard's [`Cheapest_arc] initialization).  Valid entries are kept,
    which is what makes the start {e warm}.
    @raise Invalid_argument if [policy] has the wrong length or some
    node has no out-arc (the graph is not strongly connected). *)

val solve_warm :
  ?stats:Stats.t -> ?policy:int array -> ?potentials:float array ->
  ?scratch:Howard.scratch -> ?hint:Ratio.t -> ?pool:Executor.t ->
  Critical.problem -> Digraph.t -> Ratio.t * int list * int array
(** One warm re-solve on a strongly connected graph.  [policy] (if
    given) is repaired in place with {!repair_policy} and seeds the
    iteration; the returned array is the final policy, to be fed back
    into the next call.  [potentials] is the in/out node-distance
    buffer of {!Howard.minimum_cycle_mean_warm} — keep one per
    component and pass it to every call, or re-solves of a barely
    changed graph re-derive all distances from scratch.

    [pool] is forwarded to the warm Howard entry points, which chunk
    their per-arc improvement sweep across the executor's workers on
    large enough graphs — answers stay bit-identical (see
    {!Howard.minimum_cycle_mean}).

    [hint] (requires [policy]) is a candidate optimum — typically the
    exact answer for a slightly different labelling of this graph.  A
    single {!Critical.locate} pass classifies it against the current
    labels: confirmed or improvable hints resolve the query without
    running policy iteration at all; only a hint strictly below the
    current optimum falls back to the full warm Howard solve.  Any
    [Ratio.t] is a sound hint; a good one makes the common case of an
    update stream (most edits leave the optimum unchanged) cost one
    Bellman–Ford pass.

    Exact: identical (λ, witness) to a cold
    {!Howard.minimum_cycle_mean}/[_ratio] solve of the same graph —
    the witness is derived by the location pass at the optimum, which
    depends only on the graph, never on the warm-start state.
    @raise Invalid_argument on graphs with a node lacking an out-arc,
    or (for [Cycle_ratio]) with a zero-total-transit cycle. *)

(** {1 Stateful convenience wrapper}

    A single-graph overlay: current labels, last policy and one kernel
    scratch.  {!Incremental} is a thin veneer over this type. *)

type t

val create : ?problem:Critical.problem -> ?pool:Executor.t -> Digraph.t -> t
(** The graph must be strongly connected with at least one arc.
    [problem] defaults to [Cycle_mean].  [pool], if given, chunks the
    improvement sweep of every re-solve across the executor's workers;
    the caller keeps ownership (and shuts it down). *)

val problem : t -> Critical.problem

val graph : t -> Digraph.t
(** Current graph (reflects all label updates). *)

val set_weight : t -> int -> int -> unit
(** @raise Invalid_argument on a bad arc id. *)

val set_transit : t -> int -> int -> unit
(** @raise Invalid_argument on a bad arc id or negative transit. *)

val solve : ?stats:Stats.t -> t -> Ratio.t * int list
(** Exact optimum of the current graph under [problem t], warm-started
    from the previous solution when one exists. *)
