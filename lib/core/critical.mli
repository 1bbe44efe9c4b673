(** The parametric graph G_λ, exact location of a candidate value λ
    relative to the optimum, the critical subgraph, and the "improve to
    optimal" finisher.

    All functions work for both problems through the [den] callback:
    [den a = 1] gives the cycle {e mean} and [den a = transit a] gives
    the cost-to-time {e ratio}.  Given λ = p/q, arcs are re-costed as
    the integer [q·w(a) − p·den(a)]; a cycle is negative under this
    cost iff its ratio is below λ, zero iff equal.  Everything here is
    exact integer arithmetic, except {!real_costs}, the float G_λ that
    Lawler's, OA's and Burns' searches probe. *)

type problem =
  | Cycle_mean  (** optimize [w(C)/|C|] *)
  | Cycle_ratio  (** optimize [w(C)/t(C)] — the cost-to-time ratio *)

val den : problem -> Digraph.t -> int -> int
(** The per-problem denominator: [den Cycle_mean g a = 1],
    [den Cycle_ratio g a = transit g a]. *)

val lambda_bounds : problem -> Digraph.t -> int * int
(** A-priori integer bounds [(lo, hi)] on every cycle's value:
    [(min w, max w)] for means, [±(n·max|w| + 1)] for ratios (every
    cycle has total transit at least 1 on a well-posed instance). *)

val real_costs : problem -> Digraph.t -> float -> float array
(** [real_costs problem g λ] is G_λ in floating point: entry [a] is
    [float w(a) −. λ ·. float (den a)].  A fresh array per call, ready
    for [Bellman_ford.run (Float _)]. *)

val any_cycle : who:string -> Digraph.t -> int list
(** Some cycle of the graph (arc ids, path order), the fallback
    candidate of the float searches.
    @raise Invalid_argument ["<who>: input graph is acyclic"] if there
    is none. *)

val scaled_costs : Digraph.t -> den:(int -> int) -> Ratio.t -> int array
(** G_λ in exact integers: entry [a] is
    [den lambda · w(a) − num lambda · den a].
    A fresh array per call, ready for [Bellman_ford.run (Int _)]. *)

val ratio_of_cycle : Digraph.t -> den:(int -> int) -> int list -> Ratio.t
(** Exact ratio of a cycle (arc-id list).
    @raise Division_by_zero if the cycle's total [den] is zero. *)

val assert_ratio_well_posed : Digraph.t -> unit
(** @raise Invalid_argument if the graph contains a cycle of zero total
    transit time, on which the cost-to-time ratio is undefined.  Called
    by every native ratio solver. *)

val cycle_in : Digraph.t -> (int -> bool) -> int list option
(** [cycle_in g keep] finds some cycle (arc ids, path order) in the
    subgraph of arcs selected by [keep], or [None] if it is acyclic.
    DFS, O(n + m). *)

type position =
  | Below  (** λ < λ*: feasible potentials exist but no cycle attains λ *)
  | Optimal of int list
      (** λ = λ*: a witness cycle of ratio exactly λ, in path order *)
  | Above of int list
      (** λ > λ*: a cycle of ratio strictly below λ, in path order *)

val locate : ?stats:Stats.t -> den:(int -> int) -> Digraph.t -> Ratio.t -> position
(** One Bellman–Ford over the re-costed graph plus a search for a cycle
    among the tight arcs.  Increments [stats.oracle_calls]. *)

val improve_to_optimal :
  ?stats:Stats.t -> den:(int -> int) -> Digraph.t -> int list -> Ratio.t * int list
(** [improve_to_optimal ~den g cycle] starts from any genuine cycle of
    [g] and repeatedly descends ([locate], take the negative cycle)
    until λ* is reached; returns the exact optimum and a witness.
    Terminates because every step moves strictly down within the finite
    set of cycle ratios.  This is the exact finisher applied to the
    candidates produced by float-based iterations (Howard, Burns) and
    ε-approximate searches (Lawler, OA). *)

val critical_arcs : den:(int -> int) -> Digraph.t -> Ratio.t -> int list
(** Arcs of the critical subgraph at λ = λ*: tight arcs that lie on a
    cycle of the tight subgraph (§2 of the paper).  Meaningful only when
    λ is the optimum; returns [] when the tight subgraph is acyclic. *)
