(** Certified ε-approximate binary search on one strongly connected
    component.

    Lawler's scaffolding with exact tests: candidates λ are drawn from
    a dyadic grid ({!Dyadic}), each tested by re-costing the arcs as
    the integers [q·w(a) − p·den(a)] and asking for a negative cycle —
    first with the truncated value iteration ({!Value_iter}), then,
    if that is inconclusive, with the exact FIFO engine
    ({!Bellman_ford.run} over [Int] costs).  Because every test is exact integer
    arithmetic, both certificate sides are sound:

    - [lo] is a grid value proven to have no cycle below it, so
      [lo <= λ*] exactly;
    - [hi] is the exact {!Ratio} of the best witness cycle found (the
      "improved Lawler" step: the witness's own value, not the tested
      λ, becomes the new upper bound), so [λ* <= hi] exactly.

    Each test shrinks the interval by at least a 3/8 factor, so the
    search reaches the width target in logarithmically many tests.
    The grid denominator is clamped so that every scaled cost and
    every ≤ n-arc walk sum stays far inside native-int range; if the
    clamp makes the requested width unreachable the search stops at
    grid resolution with [converged = false] — still a sound
    interval. *)

type t = {
  lo : Ratio.t;      (** certified lower bound: [lo <= λ*] *)
  hi : Ratio.t;      (** exact value of [witness]: [λ* <= hi] *)
  witness : int list;  (** cycle attaining [hi], arc ids in path order *)
  tests : int;       (** λ-tests performed *)
  rounds : int;      (** value-iteration rounds across all tests *)
  converged : bool;  (** [hi - lo <= width] was reached *)
}

val solve :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  den:(int -> int) -> bounds:int * int -> width:float -> max_rounds:int ->
  Digraph.t -> t
(** [solve ~den ~bounds ~width ~max_rounds g] on a strongly connected
    [g] with at least one arc.  [den a = 1] gives the cycle mean,
    [den a = transit a] the cost-to-time ratio.  [bounds = (blo, bhi)]
    are a-priori integer bounds on λ*, [width] the absolute target for
    [hi - lo], [max_rounds] the value-iteration truncation per test.
    A budget interruption returns the current (sound) interval with
    [converged = false] instead of raising.
    @raise Invalid_argument on arcless or acyclic input, or if [width]
    is not positive and finite. *)
