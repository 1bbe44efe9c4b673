(** Independent certification of solver results.

    A claimed optimum [(λ, C)] is checked from scratch, using only
    exact integer arithmetic:
    {ol
    {- [C] is a genuine cycle of the graph;}
    {- the exact ratio of [C] equals λ;}
    {- no better cycle exists — a Bellman–Ford pass over the costs
       [den λ · w(a) − num λ · t(a)] (sign-adjusted for maximization)
       finds no improving cycle.}}

    Together these prove optimality by LP duality, independently of the
    algorithm that produced the result.

    The third step's Bellman–Ford ends in feasible potentials [d]:
    [d(dst a) <= d(src a) + cost a] on every arc.  They are themselves
    a proof that no improving cycle exists (summing the inequality
    around any cycle gives cost ≥ 0), and anyone can re-check them in
    one pass over the arcs (McConnell, Mehlhorn, Näher & Schweitzer,
    "Certifying algorithms", 2011).  {!certify_with} returns them and
    accepts stored ones; {!certify} and {!certify_report} always prove
    from zero. *)

type potentials = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Stored node potentials, off the OCaml heap (4 bytes a node). *)

type proof =
  | Stored  (** the stored potentials passed the one-pass check *)
  | Probed of potentials option
      (** the full probe ran and found no improving cycle; its
          feasible potentials for storing, one per node, or [None] if
          one does not fit in 32 bits *)

val certify_with :
  ?objective:Solver.objective ->
  ?problem:Solver.problem ->
  ?stored:potentials ->
  Digraph.t ->
  Ratio.t ->
  int list ->
  (proof, string) result
(** The certificate, steps 1 and 2 first.  With [stored] potentials,
    step 3 is one O(m) pass that checks
    [d(dst a) <= d(src a) + sign·(q·w(a) − p·den(a))] on every arc, the
    costs computed inline so nothing is allocated.  A pass proves λ
    optimal for [g] whatever graph the potentials were computed for.
    Potentials of the wrong length, a failing arc, or a label whose
    cost could overflow native ints (possible only on a graph the
    solver's preflight would reject) fall through to the full
    Bellman–Ford probe, which answers exactly as {!certify} does. *)

val certify :
  ?objective:Solver.objective ->
  ?problem:Solver.problem ->
  Digraph.t ->
  Ratio.t ->
  int list ->
  (unit, string) result
(** [Error msg] pinpoints the first failing condition. *)

val certify_report :
  ?objective:Solver.objective ->
  ?problem:Solver.problem ->
  Digraph.t ->
  Solver.report ->
  (unit, string) result

val rational_certificate :
  ?problem:Solver.problem ->
  Digraph.t ->
  Ratio.t ->
  int list ->
  (Ratio.t, string) result
(** The exact-answer-mode cross-check: recompute λ from the witness
    cycle's integer weight and transit sums alone (never from the
    solver's iterate), and return it as the canonical rational
    certificate.  Fails if the witness is not a cycle of this graph, if
    the cycle sums disagree with the claimed λ, or if the float
    rendering of the answer is more than 1 ulp from the certificate's
    correctly rounded quotient.  Objective-independent: the cycle's
    ratio is the attained value under either sign. *)
