(** Dynamic-graph sessions: exact MCM/MCR answers over a stream of
    updates.

    The paper's motivation (§1.3) is that cycle-mean/ratio solvers "be
    run many times" inside retiming, rate-optimization and
    clock-scheduling loops, where each iteration makes a {e small edit}
    to the graph.  A session owns a mutable overlay over the CSR
    digraph and answers [query] after any prefix of [set_weight] /
    [set_transit] / [add_arc] / [remove_arc] updates, maintaining:

    - an {b epoch} counter (one tick per update) identifying graph
      versions;
    - the graph's {b fingerprint}, as a running sum of per-arc terms:
      a label update adjusts it in O(1);
    - the {b SCC partition}, incrementally: label updates dirty only
      the containing cyclic component (cross-component arcs dirty
      nothing), while a structural update is settled lazily: one
      rebuild of the session's graph in buffers the session owns and
      reuses, then, when the edit provably keeps every component
      (an insertion inside one, a removal of an arc in none, or a
      removal that leaves its component strongly connected), a
      rebuild of the touched component alone; otherwise (a possible
      merge or split, or several pending edits) one re-partition in
      which unchanged components carry their cached optimum over, and
      changed ones carry the optimum of the old component their first
      node was in;
    - per-component {b hints}: a dirty component re-solves from its
      stale optimum λ.  One {!Critical.locate} at λ confirms it, or
      finishes from the better cycle it finds with
      {!Critical.improve_to_optimal}; when the optimum rose past λ, or
      there is no λ, {!Newton.descent} solves the component.

    Dirty components re-solve through the same {!Fanout} loop and
    component-order reduction as [Solver.solve ~jobs], concurrently on
    the {!Executor} pool, so a session query is {b bit-identical} to a
    cold [Solver.solve] of the materialized graph — same λ, same
    witness, same component count, for every job count (property-tested
    in [test_dyn.ml]).  Only [report.stats] differs: it counts the work
    {e this} query performed, which is the point of the subsystem.

    See docs/DYN.md for the session model, the journal format and the
    NDJSON wire protocol of [ocr stream]. *)

type t

(** {1 Construction} *)

val create :
  ?problem:Solver.problem -> ?objective:Solver.objective ->
  ?jobs:int -> ?pool:Executor.t -> Digraph.t -> t
(** A session rooted at a snapshot of the given graph (the graph value
    itself is never mutated).  [problem] defaults to [Cycle_mean],
    [objective] to [Minimize].  [jobs > 1] (default [1]) spawns a
    private executor pool reused by every query until {!close};
    [pool] supplies an externally managed one instead.
    @raise Invalid_argument if [jobs < 1]. *)

val close : t -> unit
(** Shuts down the private pool, if any.  Idempotent; the session
    remains usable for serial queries afterwards. *)

(** {1 Updates}

    Session arc ids are stable: the arcs of the base graph keep their
    ids, [add_arc] returns fresh ids in sequence, and removed ids are
    never reused.  Every successful update advances the epoch by one;
    failed updates (out-of-range ids, removed arcs, negative transits)
    raise [Invalid_argument] and leave the session — epoch and
    answers — untouched.  The session keeps no history of updates: a
    caller that wants to replay one records the {!update} values it
    applies (as [ocr stream --journal] does) and hands them to
    {!replay}. *)

val set_weight : t -> int -> int -> unit
val set_transit : t -> int -> int -> unit

val add_arc : t -> src:int -> dst:int -> weight:int -> transit:int -> int
(** Returns the new arc's session id. *)

val remove_arc : t -> int -> unit

(** {1 Queries} *)

type report = {
  epoch : int;       (** the epoch this answer is for *)
  lambda : Ratio.t;  (** exact optimum over the whole current graph *)
  cycle : int list;  (** witness cycle, session arc ids *)
  components : int;  (** number of cyclic SCCs in the current graph *)
  resolved : int;    (** components re-solved by this query (the rest
                         were served from per-component caches) *)
  stats : Stats.t;   (** operation counts of this query's work *)
}

val query : t -> report option
(** [None] iff the current graph is acyclic.  Equal to
    [Solver.solve ~algorithm:Howard] on {!graph} — λ bit-identical,
    witness mapped through {!to_graph_arc}, same component count — for
    every job count.  Re-queries at an unchanged epoch are served from
    the session's answer cache.
    @raise Invalid_argument under exactly the conditions (and with
    exactly the messages) of [Solver.solve]: ill-posed ratio instances
    and weights outside the exact-arithmetic range. *)

val epoch : t -> int
(** Number of updates applied so far (0 for a fresh session). *)

(** {1 Introspection} *)

val n : t -> int
val live_arcs : t -> int

val arc_count : t -> int
(** Total session arc ids ever allocated (live or removed); valid ids
    are [0 .. arc_count t - 1]. *)

val problem : t -> Solver.problem
val objective : t -> Solver.objective
val arc_src : t -> int -> int
val arc_dst : t -> int -> int
val arc_weight : t -> int -> int
val arc_transit : t -> int -> int
val arc_alive : t -> int -> bool

val graph : t -> Digraph.t
(** Snapshot of the current graph (fresh value; later updates do not
    affect it).  Arcs appear in session-id order, skipping removed
    ones; {!to_graph_arc}/{!of_graph_arc} translate ids. *)

val to_graph_arc : t -> int -> int
(** Session arc id → arc id in {!graph} (and in the cold-solve report);
    [-1] for removed arcs. *)

val of_graph_arc : t -> int -> int
(** Arc id in {!graph} → session arc id. *)

val fingerprint : t -> Fingerprint.t
(** Structural fingerprint of the current graph — equal to
    [Fingerprint.of_graph (graph t)].  The session keeps the
    fingerprint's per-arc lane sums: [set_weight]/[set_transit]
    subtract the arc's old term and add its new one, so after label
    edits this call is O(1) and allocates only its result.
    [add_arc]/[remove_arc] renumber the snapshot's arcs; the next call
    (or query) refreshes the partition, and the pass over the
    session's arcs that builds the new CSR rebuilds the sums.  Lets engine front-ends key result caches and
    count dynamic hits/misses. *)

(** {1 Inspection} *)

type partition = {
  parts : (int array * int array * Digraph.t) array;
      (** One entry per cyclic SCC, in component order: its session
          node ids (increasing), its session arc ids (in its
          subgraph's arc order), and its induced subgraph — renumbered
          and ordered exactly as [Scc.partition] on {!graph} would
          give it, with min-form weights (negated in a [Maximize]
          session). *)
  local_refreshes : int;
      (** structural refreshes that rebuilt only the component the
          edit touched *)
  full_refreshes : int;  (** those that re-partitioned the whole graph *)
}

val partition : t -> partition
(** The session's current partition, brought up to date first: for
    inspection and tests.  The node arrays and graphs are the
    session's own; read them, never mutate them.  The graphs are valid
    only until the next update: a component covering every node is
    the session's graph itself, which label updates rewrite and the
    refresh after a structural update rebuilds in place.  Take
    {!graph} for a snapshot that lasts. *)

(** {1 Replay} *)

type update =
  | Set_weight of { arc : int; weight : int }
  | Set_transit of { arc : int; transit : int }
  | Add_arc of { arc : int; src : int; dst : int; weight : int; transit : int }
      (** [arc] is the session id the insertion received (or [-1] in a
          hand-built update, meaning "don't check"). *)
  | Remove_arc of { arc : int }

val apply : t -> update -> unit
(** Applies one update.
    @raise Invalid_argument if an [Add_arc] entry carries an id
    different from the one the session assigns (the journal does not
    match this session's history), or under the same conditions as the
    named update functions. *)

val replay :
  ?problem:Solver.problem -> ?objective:Solver.objective ->
  ?jobs:int -> ?pool:Executor.t -> Digraph.t -> update list -> t
(** [replay g updates] = a fresh session on [g] with every update
    applied. *)
