(** Strongly connected components (iterative Tarjan over the graph's
    own CSR: stacks and one int cursor per DFS frame in this domain's
    {!Probe} workspace, no per-node successor copy). *)

type t = {
  count : int;             (** number of components *)
  component : int array;   (** node -> component id *)
  members : int list array; (** component id -> member nodes *)
}

val compute : Digraph.t -> t
(** Component ids are numbered in {e reverse topological} order of the
    condensation: every arc between distinct components goes from a
    higher id to a lower id.  The numbering is deterministic: DFS roots
    are tried in increasing node order and each node's successors in
    out-arc (CSR) order, and a component's id is the order in which
    its root finishes. *)

val is_trivial : Digraph.t -> t -> int -> bool
(** A component is trivial if it is a single node without a self-loop;
    trivial components contain no cycle. *)

val nontrivial_components : Digraph.t -> t -> int list list
(** Member lists of all components that contain at least one cycle. *)

type subproblem = {
  comp : int;              (** component id in the decomposition *)
  sub : Digraph.t;         (** induced subgraph, nodes renumbered *)
  node_of_sub : int array; (** sub node -> original node *)
  arc_of_sub : int array;  (** sub arc -> original arc *)
}

val partition : ?nontrivial_only:bool -> Digraph.t -> t -> subproblem array
(** All component subgraphs in one O(n + m) sweep, in increasing
    component id (= reverse topological) order.  Each entry is
    structurally identical to
    [Digraph.induced g (List.sort compare members)] for that component
    — the same renumbering and arc order the per-component solvers have
    always seen — without the O(m · count) repeated arc scans.  With
    [nontrivial_only] (the default) components without a cycle are
    skipped, mirroring {!nontrivial_components}.

    {b Sharing.}  When one kept component covers every node (any
    strongly connected input, e.g. every SPRAND graph), the result is
    a single entry whose [sub] {e is} the input graph — physically,
    not a copy — with identity [node_of_sub]/[arc_of_sub].  It is
    still exactly what {!Digraph.induced} would build, but label
    writes through {!Digraph.Unsafe} on [sub] land on the input graph
    too (see the aliasing note there). *)

val condensation : Digraph.t -> t -> Digraph.t
(** The component DAG: one node per component (same ids as
    [component]), one arc per original arc joining distinct components
    (weights and transit times preserved; parallel arcs kept).  The
    result is acyclic, with arcs flowing from higher component ids to
    lower ones. *)
