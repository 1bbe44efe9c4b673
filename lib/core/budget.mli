(** Cooperative iteration / wall-clock budgets for long-running solves.

    A budget is threaded (optionally) through the iterative algorithms:
    Howard ticks once per policy iteration, HO once per table level,
    Karp2 once per relaxation pass, and {!Solver} checks the clock
    between strongly connected components.  When the budget runs out
    the algorithm escapes with {!Exceeded} instead of finishing — the
    engine's portfolio policy uses iteration budgets to decide when to
    fall back from Howard to HO to Karp2, and deadline budgets to honor
    per-request time limits.

    The module is clock-agnostic (the core library has no [unix]
    dependency): callers that want a wall-clock deadline supply [~now]
    (e.g. [Unix.gettimeofday]) together with the absolute
    [~deadline_at] in the same time base.

    Budgets are domain-safe: the iteration counter is an [Atomic.t], so
    a single budget may be shared by the per-SCC subtasks of a parallel
    {!Solver.solve} — exactly [max_iterations] ticks succeed pool-wide,
    whichever domains perform them. *)

type cause = Iterations | Deadline

exception Exceeded of cause

type t

val create :
  ?max_iterations:int -> ?now:(unit -> float) -> ?deadline_at:float ->
  unit -> t
(** Omitted [max_iterations] means unbounded; omitted [deadline_at]
    means no time limit.  @raise Invalid_argument if [deadline_at] is
    given without [now]. *)

val tick : t -> unit
(** Consume one iteration and check the clock.
    @raise Exceeded when either limit is exhausted. *)

val check : t -> unit
(** Clock check only (does not consume an iteration).
    @raise Exceeded past the deadline. *)
