(** Representative operation counts, as advocated by Ahuja et al. and
    measured throughout §4 of the paper.  Every algorithm accepts an
    optional [Stats.t] and increments the counters relevant to it. *)

type t = {
  mutable iterations : int;
      (** main-loop iterations (Burns, KO, YTO, Howard pivots/policies;
          bisection steps for Lawler/OA; probes for Newton) *)
  mutable relaxations : int;
      (** successful distance/potential updates *)
  mutable arcs_visited : int;
      (** arcs scanned (the DG-vs-Karp measure of §4.4) *)
  mutable cycles_examined : int;
      (** cycles whose mean/ratio was evaluated *)
  mutable oracle_calls : int;
      (** negative-cycle tests: Lawler's and OA's float probes and
          every exact {!Critical.locate} (Newton's descent, the exact
          finisher, warm hints) *)
  mutable level : int;
      (** Karp-recurrence level reached at termination — the HO
          "number of iterations" of §4.3 (equals [n] for plain Karp) *)
  heap : Heap_stats.t;  (** heap operations (KO vs YTO, §4.2) *)
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]; [level] accumulates by
    [max]. *)

val merge : t -> t -> t
(** Functional combination of two counter records into a fresh one
    ([level] by [max], everything else by sum); the arguments are left
    untouched.  This is the only safe way to combine counters produced
    on different domains: each solve gets its own [Stats.t] and the
    join merges — counter records are never shared across domains. *)

val pp : Format.formatter -> t -> unit
