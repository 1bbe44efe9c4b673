(** Bellman–Ford negative-cycle detection and feasible potentials.

    One FIFO engine serves both cost types.  Costs are materialized
    arrays ([costs.(a)] is the cost of arc [a]), tagged by the GADT
    {!costs}: [Int] for the exact integer probes (the re-costed
    [q·w(a) − p·den(a)] of a candidate ratio [p/q], certificates,
    retiming and clock schedules) and [Float] for the float bisections
    of Lawler, OA and Burns, which test [w(a) − λ·den(a)] directly in
    floating point as the original study did.  Integer arithmetic is
    on native ints; callers keep scaled costs within range.

    Negative cycles are found by searching the predecessor graph, on a
    rule that depends on the cost tag:
    - [Int]: after every n relaxations (Cherkassky & Goldberg's
      amortized search), and when a node reaches n+1 updates;
    - [Float]: only when a node reaches n+1 updates, so Lawler's and
      OA's relaxation and oracle counts stay the published ones.

    A search that finds no cycle changes no distance, predecessor or
    queue entry, so a feasible run relaxes the same arcs in the same
    order under either rule; only a negative-cycle run can stop
    sooner, with a different (still negative) cycle. *)

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
    exit on the first negative cycle, detected by the per-tag rule
    above.  [on_relax] is invoked on every
    successful arc relaxation (the paper's operation counts).  The
    [Float] scan re-reads the popped node's distance for every arc, so
    a negative self-loop takes effect within the scan; the [Int] scan
    reads it once per pop.
    Runs in this domain's {!Probe} workspace: the [Int] costs are
    copied in and the distances copied out.
    @raise Invalid_argument if the cost array does not have one entry
    per arc, or on a nested {!Probe.borrow}. *)

val probe : ?on_relax:(unit -> unit) -> Probe.t -> Digraph.t -> int list option
(** [run] on [Int] costs inside a workspace the caller has borrowed
    for [g], with no copy either way: the costs are [ws.costs]'s first
    m entries.  [Some cycle] is a negative cycle; on [None] the first n
    entries of [ws.dist] are feasible potentials.  The exact probes of
    [Critical] and [Verify] use it, so after the first probe on a graph
    no larger, a probe allocates only its result.
    @raise Invalid_argument if the workspace holds fewer nodes or arcs
    than [g]. *)
