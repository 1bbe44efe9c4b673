(* Span/event recording into preallocated per-domain ring buffers.

   One ring per domain (= one track in the exported trace), so
   recording never takes a lock and never races: a domain only ever
   writes its own ring.  A record is three stores into unboxed arrays
   (int timestamp, packed int code, float argument) — zero heap words
   on the hot path.  When the ring wraps, the oldest records are
   overwritten; the exporter reports how many were dropped rather than
   ever stalling a solve.

   ALLOCATION CONTRACT: [begin_span]/[end_span]/[instant]/[counter_int]
   check the global enabled flag themselves, but alloc-sensitive call
   sites should still guard with [if !Obs.enabled_flag then ...] — in
   particular [counter]'s float argument would otherwise be boxed at
   the call boundary even when tracing is off. *)

type buf = {
  dom : int;
  mask : int; (* capacity - 1; capacity is a power of two *)
  ts : int array;
  code : int array; (* (name id lsl 2) lor kind *)
  arg : float array;
  mutable len : int; (* total records ever written, monotone *)
}

let kind_begin = 0
let kind_end = 1
let kind_instant = 2
let kind_counter = 3

(* ------------------------------------------------------------------ *)
(* Ring registry                                                       *)
(* ------------------------------------------------------------------ *)

let registry_mutex = Mutex.create ()
let default_capacity = ref 65536

(* [rings] is indexed by domain id for the O(1) hot-path lookup;
   [tracks] keeps registration order for the exporters.  The array is
   only ever grown (swapped) under the mutex; racing readers that still
   hold the old array see the same buf objects, so no record is lost. *)
let rings : buf option array ref = ref (Array.make 16 None)
let tracks : buf list ref = ref []

let make_buf dom cap =
  { dom; mask = cap - 1; ts = Array.make cap 0; code = Array.make cap 0;
    arg = Array.make cap 0.0; len = 0 }

let register dom =
  Mutex.lock registry_mutex;
  let arr = !rings in
  let b =
    match if dom < Array.length arr then arr.(dom) else None with
    | Some b -> b (* lost the race to another toggle of the same domain *)
    | None ->
      let b = make_buf dom !default_capacity in
      let arr =
        if dom < Array.length arr then arr
        else begin
          let size = ref (Array.length arr) in
          while dom >= !size do
            size := 2 * !size
          done;
          let bigger = Array.make !size None in
          Array.blit arr 0 bigger 0 (Array.length arr);
          rings := bigger;
          bigger
        end
      in
      arr.(dom) <- Some b;
      tracks := b :: !tracks;
      b
  in
  Mutex.unlock registry_mutex;
  b

let[@inline] buffer () =
  let dom = (Domain.self () :> int) in
  let arr = !rings in
  if dom < Array.length arr then
    match Array.unsafe_get arr dom with
    | Some b -> b
    | None -> register dom
  else register dom

let[@inline] record kind id arg =
  let b = buffer () in
  let i = b.len land b.mask in
  Array.unsafe_set b.ts i (Obs.now_ns ());
  Array.unsafe_set b.code i ((id lsl 2) lor kind);
  Array.unsafe_set b.arg i arg;
  b.len <- b.len + 1

let[@inline] begin_span id = if !Obs.enabled_flag then record kind_begin id 0.0
let[@inline] end_span id = if !Obs.enabled_flag then record kind_end id 0.0
let[@inline] instant id = if !Obs.enabled_flag then record kind_instant id 0.0

let[@inline] counter_int id v =
  if !Obs.enabled_flag then record kind_counter id (float_of_int v)

let counter id v = if !Obs.enabled_flag then record kind_counter id v

(* Tagged variants: the tag (a request trace id, 0 = untagged) rides
   in the float argument slot, converted only after the enabled check,
   so a disabled call site stays allocation-free.  A tag of 0 behaves
   exactly like the untagged entry points. *)
let[@inline] begin_span_id id tag =
  if !Obs.enabled_flag then record kind_begin id (float_of_int tag)

let[@inline] end_span_id id tag =
  if !Obs.enabled_flag then record kind_end id (float_of_int tag)

let[@inline] instant_id id tag =
  if !Obs.enabled_flag then record kind_instant id (float_of_int tag)

(* ------------------------------------------------------------------ *)
(* Process identity (multi-process export)                             *)
(* ------------------------------------------------------------------ *)

(* A standalone trace (ocr solve --trace) exports as pid 0 / "ocr"
   with timestamps rebased to the earliest record, which reads nicely
   in a viewer.  The cluster's per-process files instead need absolute
   timestamps (so the merger can align them) plus a stable pid per
   process and the clock offset measured by the router handshake. *)
let process_pid = ref 0
let process_label = ref "ocr"
let clock_offset = ref 0
let absolute_ts = ref false

let set_process ~pid ~name () =
  process_pid := pid;
  process_label := name;
  absolute_ts := true

let set_clock_offset_ns n = clock_offset := n

(* ------------------------------------------------------------------ *)
(* Configuration / lifecycle                                           *)
(* ------------------------------------------------------------------ *)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let configure ?capacity () =
  Mutex.lock registry_mutex;
  (match capacity with
  | Some c -> default_capacity := next_pow2 (max 16 c) 16
  | None -> ());
  rings := Array.make 16 None;
  tracks := [];
  process_pid := 0;
  process_label := "ocr";
  clock_offset := 0;
  absolute_ts := false;
  Mutex.unlock registry_mutex

(* eager ring allocation for the calling domain: without it the first
   record pays ~ms of array allocation, which skews the first traced
   request's phase timing against the access log's clock stamps *)
let preallocate () = ignore (buffer () : buf)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_dom : int;
  ev_ts : int; (* monotonic ns *)
  ev_kind : [ `Begin | `End | `Instant | `Counter ];
  ev_id : int; (* interned name, Obs.name_of *)
  ev_arg : float;
}

let snapshot_track b =
  let cap = b.mask + 1 in
  let kept = min b.len cap in
  let first = b.len - kept in
  List.init kept (fun k ->
      let i = (first + k) land b.mask in
      let code = b.code.(i) in
      {
        ev_dom = b.dom;
        ev_ts = b.ts.(i);
        ev_kind =
          (match code land 3 with
          | 0 -> `Begin
          | 1 -> `End
          | 2 -> `Instant
          | _ -> `Counter);
        ev_id = code lsr 2;
        ev_arg = b.arg.(i);
      })

let sorted_tracks () =
  Mutex.lock registry_mutex;
  let ts = !tracks in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> compare a.dom b.dom) ts

let events () = List.concat_map snapshot_track (sorted_tracks ())

let recorded () = List.fold_left (fun acc b -> acc + b.len) 0 (sorted_tracks ())

let dropped () =
  List.fold_left
    (fun acc b -> acc + max 0 (b.len - (b.mask + 1)))
    0 (sorted_tracks ())

(* ------------------------------------------------------------------ *)
(* Chrome/Perfetto trace-event JSON                                    *)
(* ------------------------------------------------------------------ *)

(* One track per domain (tid = domain id); untagged spans become
   complete events (ph "X" with ts + dur, both in microseconds), which
   Perfetto nests by time containment, so Howard iteration spans show
   under their component span.  Begin/end pairing is reconstructed
   with a per-track stack; records orphaned by ring wrap-around are
   closed at the last timestamp seen (or skipped, for an end with no
   surviving begin) rather than corrupting the file.

   Tagged records (arg <> 0, written by the [_id] entry points) export
   differently: begin/end become async events (ph "b"/"e") paired by
   (cat, id) rather than the stack — request spans from different
   requests overlap freely on one track — and instants carry the tag
   as [args.trace].  The multi-process merger keys on both. *)
let to_chrome_json () =
  let tracks = sorted_tracks () in
  let all = List.concat_map snapshot_track tracks in
  let t0 =
    if !absolute_ts then 0
    else List.fold_left (fun acc e -> min acc e.ev_ts) max_int all
  in
  let pid = !process_pid in
  let us ns = float_of_int (ns - t0) /. 1_000.0 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string b ",\n";
        Buffer.add_string b s)
      fmt
  in
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
     \"args\":{\"name\":%s}}"
    pid
    (Obs.json_string !process_label);
  if !absolute_ts then
    emit
      "{\"name\":\"clock_offset_ns\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
       \"args\":{\"value\":%d}}"
      pid !clock_offset;
  List.iter
    (fun tr ->
      emit
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
         \"args\":{\"name\":\"domain %d\"}}"
        pid tr.dom tr.dom)
    tracks;
  List.iter
    (fun tr ->
      let evs = snapshot_track tr in
      let stack = ref [] in
      let last_ts = ref (match evs with e :: _ -> e.ev_ts | [] -> t0) in
      let emit_span id ts_begin ts_end =
        emit
          "{\"name\":%s,\"cat\":\"ocr\",\"ph\":\"X\",\"ts\":%.3f,\
           \"dur\":%.3f,\"pid\":%d,\"tid\":%d}"
          (Obs.json_string (Obs.name_of id))
          (us ts_begin)
          (float_of_int (ts_end - ts_begin) /. 1_000.0)
          pid tr.dom
      in
      let emit_async ph e tag =
        emit
          "{\"name\":%s,\"cat\":\"ocr\",\"ph\":\"%s\",\"id\":\"%d\",\
           \"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"trace\":%d}}"
          (Obs.json_string (Obs.name_of e.ev_id))
          ph tag (us e.ev_ts) pid tr.dom tag
      in
      List.iter
        (fun e ->
          last_ts := max !last_ts e.ev_ts;
          let tag = int_of_float e.ev_arg in
          match e.ev_kind with
          | `Begin when tag <> 0 -> emit_async "b" e tag
          | `End when tag <> 0 -> emit_async "e" e tag
          | `Begin -> stack := (e.ev_id, e.ev_ts) :: !stack
          | `End ->
            (* pop to the matching begin; anything above it was left
               open (lost its end to a wrap) and closes here *)
            if List.exists (fun (id, _) -> id = e.ev_id) !stack then begin
              let rec pop = function
                | (id, ts) :: rest when id = e.ev_id ->
                  emit_span id ts e.ev_ts;
                  rest
                | (id, ts) :: rest ->
                  emit_span id ts e.ev_ts;
                  pop rest
                | [] -> []
              in
              stack := pop !stack
            end
          | `Instant ->
            if tag <> 0 then
              emit
                "{\"name\":%s,\"cat\":\"ocr\",\"ph\":\"i\",\"ts\":%.3f,\
                 \"s\":\"t\",\"pid\":%d,\"tid\":%d,\"args\":{\"trace\":%d}}"
                (Obs.json_string (Obs.name_of e.ev_id))
                (us e.ev_ts) pid tr.dom tag
            else
              emit
                "{\"name\":%s,\"cat\":\"ocr\",\"ph\":\"i\",\"ts\":%.3f,\
                 \"s\":\"t\",\"pid\":%d,\"tid\":%d}"
                (Obs.json_string (Obs.name_of e.ev_id))
                (us e.ev_ts) pid tr.dom
          | `Counter ->
            emit
              "{\"name\":%s,\"cat\":\"ocr\",\"ph\":\"C\",\"ts\":%.3f,\
               \"pid\":%d,\"tid\":%d,\"args\":{\"value\":%g}}"
              (Obs.json_string (Obs.name_of e.ev_id))
              (us e.ev_ts) pid tr.dom e.ev_arg)
        evs;
      (* spans still open at snapshot time close at the last record *)
      List.iter (fun (id, ts) -> emit_span id ts !last_ts) !stack)
    tracks;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write_chrome_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))
