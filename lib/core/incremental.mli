(** Repeated minimum-cycle-mean / cycle-ratio queries under arc-label
    updates, on one strongly connected graph.

    The paper's motivation (§1.3): "finding more efficient
    implementation of these algorithms is very important because their
    applications require that they be run many times" — retiming loops,
    rate optimization, and clock scheduling all re-solve after small
    edits.  This module keeps Howard's last optimal policy and
    warm-starts from it: after a local label change the policy is
    usually still optimal or one improvement sweep away, so a re-solve
    costs one or two O(m) iterations instead of a cold start.

    Results are identical to a cold solve (every answer goes through
    the exact finisher); only the work differs.

    {b Deprecation note.}  This module is kept as a stable, minimal
    front for the strongly-connected label-update case; it is now a
    thin delegation layer over {!Warm}, which also backs the dynamic
    session subsystem [Dyn] (`lib/dyn/`).  New code that needs
    structural updates ([add_arc]/[remove_arc]), non-strongly-connected
    inputs, epoching, or journals should use [Dyn] directly. *)

type t

val create : ?problem:Critical.problem -> ?pool:Executor.t -> Digraph.t -> t
(** The graph must be strongly connected with at least one arc (as for
    the raw algorithms; use {!Solver} + fresh solves, or [Dyn],
    otherwise).  [problem] defaults to [Cycle_mean]; pass [Cycle_ratio]
    for cost-to-time ratio queries.  [pool] chunks each re-solve's
    improvement sweep across the executor's workers (caller-owned;
    answers are bit-identical with or without it). *)

val graph : t -> Digraph.t
(** Current graph (reflects all updates). *)

val set_weight : t -> int -> int -> unit
(** [set_weight t arc w] changes one arc weight.
    @raise Invalid_argument on a bad arc id. *)

val set_transit : t -> int -> int -> unit
(** [set_transit t arc tt] changes one arc transit time (only
    meaningful for [Cycle_ratio] sessions; legal on any).
    @raise Invalid_argument on a bad arc id or negative transit. *)

val solve : ?stats:Stats.t -> t -> Ratio.t * int list
(** Exact optimum of the current graph, warm-started from the previous
    solution when one exists.
    @raise Invalid_argument for [Cycle_ratio] sessions whose current
    graph has a cycle with zero total transit time. *)
