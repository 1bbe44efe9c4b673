(** Operation counters shared by all heap implementations.

    The DAC'99 study compares KO and YTO by their numbers of heap
    operations (§4.2); every heap in this library can be created with a
    counter record that it increments on each operation. *)

type t = {
  mutable inserts : int;
  mutable extract_mins : int;
  mutable decrease_keys : int;
  mutable deletes : int;
  mutable melds : int;
}

val create : unit -> t
val reset : t -> unit
val total : t -> int
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val pp : Format.formatter -> t -> unit
