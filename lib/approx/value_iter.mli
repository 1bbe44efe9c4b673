(** Truncated synchronous value iteration: the approx lane's fast
    negative-cycle test.

    In the style of Altschuler–Parrilo's near-linear min-mean-cycle
    approximation, the test runs Jacobi-style Bellman rounds from the
    all-zeros vector: after round [r], [x(v)] is the minimum cost of a
    walk of at most [r] arcs ending at [v].  Two certificates can end
    the run early:

    - a round with {e no update} means the vector is a fixpoint, i.e.
      feasible potentials — no negative cycle exists;
    - a cycle of the {e predecessor graph} (the arc last used to
      improve each node) is always a negative cycle, by the classic
      Cherkassky–Goldberg invariant of label-correcting methods — the
      same argument that bounds any pred-acyclic vector below by
      [-(n-1)·max|cost|], so divergence is always caught.

    If neither certificate appears within [max_rounds] rounds the test
    is {!Inconclusive} and the caller settles it with the exact FIFO
    engine ({!Bellman_ford.run} over [Int] costs).  On low-diameter graphs the
    fixpoint arrives in ~diameter rounds, which is where the lane wins.

    Rounds are data-parallel over the in-CSR ({!Digraph.Unsafe.in_csr}):
    each chunk owns a node range, reads the frozen previous vector and
    writes disjoint entries of the next one, so the result is
    bit-identical for every chunk count. *)

type verdict =
  | No_negative_cycle  (** fixpoint reached: feasible potentials exist *)
  | Negative_cycle of int list
      (** arc ids of a negative-cost cycle, in path order *)
  | Inconclusive  (** round budget exhausted without a certificate *)

val run :
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  max_rounds:int -> costs:int array -> Digraph.t -> verdict * int
(** [run ~max_rounds ~costs g] returns the verdict and the number of
    rounds actually performed.  [budget] ticks once per round on the
    coordinating domain.  [stats] counts arcs scanned and node
    improvements (deterministic across chunk counts).  Callers must
    keep [(n-1) · max|costs|] within native-int range (the lane's grid
    clamp guarantees it); otherwise the test returns [Inconclusive]
    immediately rather than risk overflow.
    @raise Invalid_argument if [costs] does not have one entry per arc.
    @raise Budget.Exceeded mid-run when the budget runs out. *)
