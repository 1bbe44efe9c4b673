type identity = {
  dev : int;
  ino : int;
  size : int;
  mtime : float;
  ctime : float;
}

type stat = { identity : identity; taken : float }

type t = (string, identity * Fingerprint.t) Lru.t

(* git's racy-clean window: a file modified this shortly before its
   stat may be rewritten within the same timestamp tick, same size,
   and keep an identical stat *)
let racy_window_s = 2.0

let create ~capacity = Lru.create ~capacity
let length = Lru.length

(* the clock is read before the stat, so a write after the stat can
   only carry an mtime later than [taken - racy_window_s] *)
let stat path =
  let taken = Unix.gettimeofday () in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st ->
    Some
      {
        identity =
          {
            dev = st.Unix.st_dev;
            ino = st.Unix.st_ino;
            size = st.Unix.st_size;
            mtime = st.Unix.st_mtime;
            ctime = st.Unix.st_ctime;
          };
        taken;
      }

let find t path s =
  match Lru.find t path with
  | Some (identity, fp) when identity = s.identity -> Some fp
  | _ -> None

let record t path s fp =
  if s.taken -. s.identity.mtime >= racy_window_s then
    Lru.add t path (s.identity, fp)

let fingerprint t path =
  match stat path with
  | None -> None
  | Some s -> (
    match find t path s with
    | Some fp -> Some fp
    | None -> (
      match Graph_io.load path with
      | exception _ -> None
      | g ->
        let fp = Fingerprint.of_graph g in
        record t path s fp;
        Some fp))
