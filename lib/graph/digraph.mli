(** Immutable directed multigraphs in compressed sparse row form.

    Nodes are integers [0 .. n-1].  Arcs are integers [0 .. m-1] and carry
    an integer weight (cost) and a non-negative integer transit time, as in
    the minimum cycle mean / cost-to-time ratio setting of Dasdan, Irani &
    Gupta (DAC 1999).  Parallel arcs and self-loops are allowed.

    The CSR arrays are stored in unboxed {!Bigarray.Array1} buffers:
    the graph's bulk data lives outside the OCaml heap (GC-invisible)
    and can be read concurrently from every domain without copying.
    A graph holds its four label arrays and the out-adjacency only
    (5m + n + 1 words); a kernel that needs in-arcs iterates
    {!reverse} (see docs/PERF.md). *)

type t

type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed native-int vector; the storage type of every CSR index
    and label array. *)

(** {1 Construction} *)

type builder

val create_builder : ?expected_arcs:int -> int -> builder
(** [create_builder n] starts a graph on nodes [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val add_arc : builder -> src:int -> dst:int -> weight:int -> ?transit:int -> unit -> int
(** Adds an arc and returns its id (ids are dense, in insertion order).
    [transit] defaults to [1].
    @raise Invalid_argument on out-of-range endpoints or negative transit. *)

val build : builder -> t
(** Freezes the builder.  The builder must not be reused afterwards. *)

val of_arcs : int -> (int * int * int * int) list -> t
(** [of_arcs n arcs] builds a graph from [(src, dst, weight, transit)]
    tuples; arc ids follow list order. *)

val of_weighted_arcs : int -> (int * int * int) list -> t
(** Like {!of_arcs} with every transit time equal to [1]. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of arcs. *)

val src : t -> int -> int
val dst : t -> int -> int
val weight : t -> int -> int
val transit : t -> int -> int

val out_degree : t -> int -> int

val min_weight : t -> int
(** Minimum arc weight.  @raise Invalid_argument on arcless graphs. *)

val max_weight : t -> int
(** Maximum arc weight.  @raise Invalid_argument on arcless graphs. *)

val total_transit : t -> int
(** Sum of all transit times (the quantity [T] of the paper). *)

(** {1 Iteration}

    All iterators pass {e arc ids}; use {!src}/{!dst}/{!weight} to
    inspect them. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g u f] applies [f] to every arc leaving [u]. *)

val fold_out : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val iter_arcs : t -> (int -> unit) -> unit
val fold_arcs : t -> ('a -> int -> 'a) -> 'a -> 'a

(** {1 Transformations} *)

val reverse : t -> t
(** Graph with every arc flipped; arc ids are preserved and the labels
    shared.  Builds the flipped graph's out-adjacency, O(n + m):
    [iter_out (reverse g) v] visits the arcs entering [v] in [g], in
    increasing id order.  Kernels that walk arcs backwards build it
    once per run. *)

val map_weights : t -> (int -> int) -> t
(** [map_weights g f] replaces the weight of arc [a] by [f a]; structure
    and transit times are shared. *)

val negate_weights : t -> t
(** Negates every weight (used to turn maximization into minimization). *)

val map_transits : t -> (int -> int) -> t
(** [map_transits g f] replaces the transit time of arc [a] by [f a];
    structure and weights are shared.
    @raise Invalid_argument if [f] returns a negative transit time. *)

(** In-place mutation of arc labels, for owners of private graphs.

    CSR structure (endpoints, adjacency) is immutable; only the weight
    and transit labels can be rewritten.  Because {!map_weights} and
    {!reverse} {e share} label arrays with the original graph, mutating
    a graph also mutates every graph derived from it by those
    functions.  The same holds for [Scc.partition] when one component
    covers every node: its single subproblem {e is} the input graph
    (identity back-maps), so a label written through the subproblem is
    written to the input, and vice versa.  Use only on graphs with a
    single owner — the dynamic session subsystem ([Dyn]) is the
    intended client. *)
module Unsafe : sig
  val set_weight : t -> int -> int -> unit
  (** [set_weight g a w] rewrites the weight of arc [a].
      @raise Invalid_argument on out-of-range arc ids. *)

  val set_transit : t -> int -> int -> unit
  (** [set_transit g a tt] rewrites the transit time of arc [a].
      @raise Invalid_argument on out-of-range arc ids or negative
      transit times. *)

  val out_csr : t -> int_array1 * int_array1
  (** [(start, arcs)]: the internal CSR adjacency — the out-arcs of
      node [u] are [arcs.{start.{u}} .. arcs.{start.{u+1} - 1}].  The
      arrays are the graph's own storage: read-only, for kernel inner
      loops that cannot afford one closure per {!iter_out} call.
      Being Bigarrays, they may be read concurrently from any
      domain. *)

  val srcs : t -> int_array1
  (** The internal arc-tail array ([srcs.{a} = src g a]); read-only. *)

  val dsts : t -> int_array1
  (** The internal arc-head array ([dsts.{a} = dst g a]); read-only. *)

  val weights : t -> int_array1
  (** The internal weight array ([weights.{a} = weight g a]); read-only
      (write through {!set_weight}). *)

  val transits : t -> int_array1
  (** The internal transit-time array; read-only, like {!weights}. *)

  val of_label_arrays :
    n:int -> m:int -> arc_src:int_array1 -> arc_dst:int_array1 ->
    arc_weight:int_array1 -> arc_transit:int_array1 -> t
  (** Builds the CSR around four caller-filled label arrays, each of
      length [m], and takes ownership of them (no copy).  Nothing is
      checked: every endpoint must lie in [0 .. n-1] and every transit
      time must be non-negative.  For loaders that validate while they
      fill ([Graph_io]); everyone else uses a {!builder}. *)

  val of_label_arrays_into :
    n:int -> m:int -> arc_src:int_array1 -> arc_dst:int_array1 ->
    arc_weight:int_array1 -> arc_transit:int_array1 ->
    out_start:int_array1 -> out_arcs:int_array1 -> t
  (** Like {!of_label_arrays}, but writes the out-CSR into
      [out_start] ([n + 1] entries) and [out_arcs] ([m] entries),
      arrays the caller owns, and allocates no storage.  The graph is
      a view of all six arrays: a caller that refills them rebuilds it
      in place, and every graph built over them before then is
      invalid.  For owners that rebuild one graph many times
      ([Dyn]). *)
end

val induced : t -> int list -> t * int array * int array
(** [induced g nodes] is the subgraph induced by [nodes] with nodes
    renumbered [0 .. k-1] (in the order given).  Returns
    [(sub, node_of_sub, arc_of_sub)] mapping new ids back to originals.
    @raise Invalid_argument if [nodes] contains duplicates or
    out-of-range ids. *)

val partition :
  t -> count:int -> component:int array -> keep:(int -> bool) ->
  (t * int array * int array) array
(** [partition g ~count ~component ~keep] splits [g] along the node
    partition [component] (node → class id in [0 .. count-1]) into one
    induced subgraph per class [c] with [keep c], in increasing class
    order.  Each entry is exactly what {!induced} would return for that
    class's members listed in increasing node order (same renumbering,
    same arc order), but the whole family is built in one
    O(n + m + count) sweep rather than one O(m) scan per class.  Arcs
    joining distinct classes are dropped.
    @raise Invalid_argument if [component] has the wrong length or
    contains an out-of-range class id. *)

(** {1 Predicates and checks} *)

val arc_between : t -> int -> int -> int option
(** Some arc id from [u] to [v] if one exists (any of the parallels). *)

val is_cycle : t -> int list -> bool
(** [is_cycle g arcs] checks that the arc-id list forms a closed walk:
    consecutive arcs are head-to-tail and the last feeds the first.
    The empty list is not a cycle. *)

val cycle_weight : t -> int list -> int
(** Sum of weights along an arc-id list. *)

val cycle_transit : t -> int list -> int
(** Sum of transit times along an arc-id list. *)

val equal_structure : t -> t -> bool
(** Same node count and identical (src, dst, weight, transit) per arc id. *)
