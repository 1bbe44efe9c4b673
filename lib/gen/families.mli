(** Structured graph families with known or easily analysed optima —
    used by the tests as fixed points and by the benches as extreme
    densities. *)

val ring : ?weight:(int -> int) -> int -> Digraph.t
(** Single directed cycle [0 → 1 → … → n−1 → 0]; arc [i] has weight
    [weight i] (default all 1).  The only cycle is the ring itself, so
    the minimum mean equals the average weight. *)

val complete : ?seed:int -> ?weights:int * int -> int -> Digraph.t
(** Complete digraph without self-loops, random weights (default
    uniform [1, 10000]). *)

val grid_torus : ?seed:int -> ?weights:int * int -> int -> int -> Digraph.t
(** [grid_torus rows cols]: each cell has arcs to its right and down
    neighbours with wrap-around; strongly connected, density 2. *)

val layered_dataflow :
  ?seed:int -> ?weights:int * int -> layers:int -> width:int -> unit -> Digraph.t
(** DSP-style layered pipeline with feedback: [layers × width] nodes,
    arcs from each node to 1–3 nodes of the next layer, and feedback
    arcs from the last layer to the first; strongly connected. *)

val long_critical : ?chord_weight:int -> int -> Digraph.t
(** Adversarial instance for early-termination schemes: a ring of [n]
    unit-weight arcs (the unique optimum, mean 1) plus heavy chords
    [i → (i+2) mod n] (weight [chord_weight], default 1000) that create
    an abundance of short, far-from-optimal cycles.  The critical cycle
    has length exactly [n], so any method that must {e exhibit} it
    (Karp-table walks, HO's level check) works to depth n. *)

val many_scc :
  ?seed:int -> ?weights:int * int -> components:int -> size:int -> unit ->
  Digraph.t
(** [components] disjoint strongly connected blocks of [size] nodes
    each (a ring plus [size] random chords, SPRAND-style weights),
    chained by one-way bridge arcs: exactly [components] cyclic SCCs.
    The stress instance for per-component solving — partition sweeps,
    parallel SCC fan-out (bench E12). *)

val low_diameter :
  ?seed:int -> ?weights:int * int -> diameter:int -> int -> Digraph.t
(** Strongly connected expander-style graph of [n] nodes whose hop
    radius concentrates around [diameter]: a Hamiltonian ring plus
    [d − 1] uniform random chords per node, with out-degree
    [d = max 2 ⌈n^(1/diameter)⌉].  The property tests draw from it for
    dense instances with many short cycles.
    @raise Invalid_argument if [n < 2] or [diameter < 1]. *)

val two_cycles : len1:int -> w1:int -> len2:int -> w2:int -> Digraph.t
(** Two disjoint cycles sharing node 0: one of length [len1] with
    every arc weighing [w1], one of length [len2] weighing [w2].  The
    minimum cycle mean is [min w1 w2] — a convenient exact fixture. *)
