(* Global observability switchboard.

   This module is the root of the `ocr_obs` substrate and depends on
   nothing, so every layer — graph, core, engine, dyn, the CLI — can
   instrument itself without creating a dependency cycle.  The design
   contract, relied on by the kernel's Gc tests and the perf gate:

   - the hot-path check is a single mutable-bool load and branch
     ([enabled_flag] is exposed raw for exactly that reason);
   - with observability disabled, instrumented code allocates nothing
     and does no work beyond that branch;
   - with it enabled, recording a span or event allocates zero heap
     words (see Trace): timestamps come from the [@@noalloc] clock
     external below and land in preallocated unboxed arrays.

   Plain (unsynchronized) reads of [enabled_flag] across domains are
   deliberate: the OCaml memory model makes racy bool reads safe (no
   tearing), and observability is toggled at operation boundaries, not
   mid-solve. *)

external now_ns : unit -> int = "ocr_obs_clock_ns" [@@noalloc]

let enabled_flag = ref false
let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(* ------------------------------------------------------------------ *)
(* Interned event names                                                *)
(* ------------------------------------------------------------------ *)

(* Instrumented modules intern their span names once at module
   initialization ([let sp = Obs.intern "howard.sweep"]), so the hot
   path only ever handles small ints.  The table is tiny (a few dozen
   names) and mutated under a mutex — interning is init-time work,
   never solve-time work. *)

let intern_mutex = Mutex.create ()
let names = ref (Array.make 64 "")
let name_count = ref 0

let intern name =
  Mutex.lock intern_mutex;
  let rec find i = if i >= !name_count then -1
    else if (!names).(i) = name then i
    else find (i + 1)
  in
  let id =
    match find 0 with
    | i when i >= 0 -> i
    | _ ->
      let i = !name_count in
      if i >= Array.length !names then begin
        let bigger = Array.make (2 * Array.length !names) "" in
        Array.blit !names 0 bigger 0 i;
        names := bigger
      end;
      (!names).(i) <- name;
      name_count := i + 1;
      i
  in
  Mutex.unlock intern_mutex;
  id

let name_of id =
  if id < 0 || id >= !name_count then
    Printf.sprintf "?%d" id
  else (!names).(id)

(* ------------------------------------------------------------------ *)
(* Escaping helpers shared by the exporters                            *)
(* ------------------------------------------------------------------ *)

(* JSON string literal, with every byte that could break a consumer
   escaped.  Printf's %S is OCaml escaping, not JSON: it emits decimal
   escapes like \027 that JSON parsers reject. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* RFC 4180 field quoting: a field containing a separator, quote or
   newline is wrapped in quotes with inner quotes doubled; anything
   else passes through unchanged so existing numeric columns keep
   their exact bytes. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\""
        else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let prometheus_name s =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s
