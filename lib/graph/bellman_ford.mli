(** Bellman–Ford negative-cycle detection and feasible potentials.

    One FIFO engine serves both cost types.  Costs are materialized
    arrays ([costs.(a)] is the cost of arc [a]), tagged by the GADT
    {!costs}: [Int] for the exact integer probes (the re-costed
    [q·w(a) − p·den(a)] of a candidate ratio [p/q], certificates,
    retiming and clock schedules) and [Float] for the float bisections
    of Lawler, OA and Burns, which test [w(a) − λ·den(a)] directly in
    floating point as the original study did.  Integer arithmetic is
    on native ints; callers keep scaled costs within range. *)

type _ costs =
  | Int : int array -> int costs
  | Float : float array -> float costs

type 'd outcome =
  | Feasible of 'd array
      (** Feasible potentials [d]: [d.(dst) <= d.(src) + cost a] for
          every arc [a].  Computed from a virtual super-source, so all
          nodes participate even in disconnected graphs. *)
  | Negative_cycle of int list
      (** Arc ids of a simple cycle of negative total cost, in path
          order. *)

val run : ?on_relax:(unit -> unit) -> 'd costs -> Digraph.t -> 'd outcome
(** FIFO Bellman–Ford from the all-zero virtual super-source (nodes
    queued in order [0..n−1], arcs scanned in CSR order) with early
    exit on the first negative cycle.  [on_relax] is invoked on every
    successful arc relaxation (the paper's operation counts).  The
    [Float] scan re-reads the popped node's distance for every arc, so
    a negative self-loop takes effect within the scan; the [Int] scan
    reads it once per pop.
    @raise Invalid_argument if the cost array does not have one entry
    per arc. *)

val cycle_in_pred_graph : Digraph.t -> int array -> int list option
(** Searches a predecessor graph ([pred_arc.(v)] is the arc last used
    to improve [v], or [-1]) for a cycle and returns its arcs in path
    order.  For any label-correcting relaxation scheme, such as the
    FIFO engine here, a cycle of the predecessor graph is a negative
    cycle (Cherkassky & Goldberg), so a hit is a sound certificate.
    O(n). *)
