(** Canonical structural fingerprint of a graph.

    Two 64-bit lanes.  Each lane is a term of the node and arc counts
    plus, mod 2⁶⁴, one term per arc: a SplitMix64-finalized function of
    (arc id, src, dst, weight, transit).  Both lanes share one
    finalizer over (id, src, dst) and then finalize that state with the
    two labels, combined differently per lane — three finalizers per
    arc in all.  Because every arc contributes one summand, changing
    one arc changes the fingerprint in O(1) ({!sub} the old term,
    {!add} the new one): the incremental multiset hash of Clarke et
    al. (ASIACRYPT 2003).  Keying each term by arc id keeps arc order
    significant, so a cached witness cycle (a list of arc ids) stays
    valid for every graph with the same fingerprint.

    What the lanes guarantee:
    - graphs that are {!Digraph.equal_structure} have equal
      fingerprints;
    - two graphs with the same n and m, every endpoint below 2²⁰ (the
      loader's node limit), that differ in exactly one arc — in its
      weight and/or transit, or in its endpoints — always have
      different fingerprints.  One lane alone already separates any
      one-field change; the second lane separates the (weight,
      transit) pairs that cancel in the first;
    - any other difference leaves a sum of differences of finalizer
      outputs in each lane, so a collision has probability about 2⁻⁶⁴
      per lane.  The lanes share each arc's (id, src, dst) state, so
      treat the pair as a ≈ 2⁻⁶⁴-per-pair hash, not 2⁻¹²⁸.

    That is negligible for the engine's result cache, and a
    verify-on-hit request re-certifies against the actual graph anyway
    (see {!Engine}).  The hash is not keyed: it offers no resistance
    to deliberately crafted collisions. *)

type t

val of_graph : Digraph.t -> t
(** O(m); allocates nothing beyond the result. *)

(** {1 Incremental maintenance}

    [finish s ~n ~m] after {!add}-ing every arc [a] of a graph with its
    [(a, src, dst, weight, transit)] equals {!of_graph}.  An owner of
    a mutable graph keeps one {!sum} and, on a label edit, {!sub}s the
    arc's old term and {!add}s its new one. *)

type sum
(** The running per-arc lane sums, stored unboxed. *)

val zero : unit -> sum
(** A fresh sum over no arcs. *)

val add :
  sum -> arc:int -> src:int -> dst:int -> weight:int -> transit:int -> unit
(** Adds one arc's term.  Allocates nothing. *)

val sub :
  sum -> arc:int -> src:int -> dst:int -> weight:int -> transit:int -> unit
(** Removes one arc's term ({!add}'s inverse).  Allocates nothing. *)

val finish : sum -> n:int -> m:int -> t
(** The fingerprint of an [n]-node, [m]-arc graph whose arc terms are
    [sum]. *)

val equal : t -> t -> bool
val hash : t -> int
val to_hex : t -> string
(** 32 lowercase hex digits. *)
