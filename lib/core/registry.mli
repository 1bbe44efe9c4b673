(** The ten algorithms of the study, behind one uniform interface.

    Every entry point assumes a strongly connected input with at least
    one arc (use {!Solver} for arbitrary graphs) and returns the exact
    optimum together with a witness cycle. *)

type algorithm =
  | Burns
  | Ko
  | Yto
  | Howard
  | Ho
  | Karp
  | Dg
  | Lawler
  | Karp2
  | Oa1
  | Oa2

val all : algorithm list
(** In the column order of the paper's Table 2 (plus OA2). *)

val name : algorithm -> string
(** Lower-case identifier, e.g. ["yto"]. *)

val display_name : algorithm -> string
(** As printed in the paper, e.g. ["YTO"], ["Howard"]. *)

val of_name : string -> algorithm option
(** Case-insensitive inverse of {!name} / {!display_name}. *)

type exact_solver =
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** The shape of {!minimum_cycle_mean}/{!minimum_cycle_ratio} applied
    to an algorithm, and of {!Newton}'s entry points: strongly
    connected input with at least one arc, exact optimum plus witness
    cycle.
    @raise Budget.Exceeded when the supplied budget runs out. *)

val native_ratio : algorithm -> bool
(** Whether the algorithm solves the cost-to-time ratio problem
    directly (Burns, Howard, Lawler, OA, KO, YTO); the Karp family
    goes through the Hartmann–Orlin transit-time expansion
    ({!Expand}). *)

val minimum_cycle_mean :
  algorithm -> ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** [pool] parallelizes the intra-SCC improvement sweep of {!Howard}
    (bit-identical answers and stats with or without it); the other
    algorithms ignore it.
    @raise Budget.Exceeded from Howard (per policy iteration), HO (per
    table level) and Karp2 (per relaxation pass) when the supplied
    budget runs out mid-solve; the others only see it between
    components, in {!Solver}. *)

val minimum_cycle_ratio :
  algorithm -> ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list
(** For non-[native_ratio] algorithms this expands transit times first,
    so it requires every transit time to be a positive integer; native
    algorithms only require every {e cycle} to have positive transit. *)
