(** Deterministic pseudo-random numbers (SplitMix64).

    Self-contained so that every generated workload is reproducible
    from its seed across OCaml versions and platforms, which the
    benchmark harness relies on. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val next64 : t -> int64
(** Raw 64-bit step. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
val float : t -> float
(** Uniform in [0, 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
