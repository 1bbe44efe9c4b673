(** Remembered graph-file fingerprints, revalidated by one [stat].

    Maps a path to the {!Fingerprint.t} of the graph its bytes parsed
    to, together with the file's identity at the time of that parse:
    [(st_dev, st_ino, st_size, st_mtime, st_ctime)].  A later request
    whose [stat] still shows the same identity can reuse the
    fingerprint without opening the file.  Any write, truncation,
    rename-over, [utimes] or [chmod] changes at least the size, the
    inode or the ctime, so the entry stops matching.

    {b Racy-clean rule} (as in git's index): an entry is only recorded
    when the file's mtime is at least 2 s older than the [stat].  A
    same-size rewrite within one timestamp tick of the recorded stat is
    therefore never answered from a stale fingerprint.

    Only fingerprints are kept, never graphs: the table costs a few
    words per path whatever the graph's size.  It is an {!Lru}, so
    capacity [<= 0] disables it ({!find} always misses, {!record} is a
    no-op). *)

type t

type stat
(** One [Unix.stat] of a path, stamped with the wall clock it was
    taken at. *)

val create : capacity:int -> t
val length : t -> int

val stat : string -> stat option
(** [None] when the path cannot be stat'ed. *)

val find : t -> string -> stat -> Fingerprint.t option
(** The fingerprint recorded for the path, if the recorded identity is
    exactly this stat's.  Promotes the entry on a hit. *)

val record : t -> string -> stat -> Fingerprint.t -> unit
(** Remember the fingerprint of the bytes read {e after} taking the
    stat.  Nothing is recorded when the stat is racy (mtime less than
    2 s before it was taken). *)

val fingerprint : t -> string -> Fingerprint.t option
(** {!stat} and {!find}; on a miss, load the file, fingerprint it and
    {!record} it.  [None] when the path cannot be stat'ed or parsed. *)
