let to_string g =
  let buf = Buffer.create (32 * (Digraph.m g + 1)) in
  Buffer.add_string buf
    (Printf.sprintf "p ocr %d %d\n" (Digraph.n g) (Digraph.m g));
  Digraph.iter_arcs g (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d %d\n"
           (Digraph.src g a + 1) (Digraph.dst g a + 1)
           (Digraph.weight g a) (Digraph.transit g a)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The loader: one byte-level scanner for both text formats            *)
(* ------------------------------------------------------------------ *)

(* What distinguishes the two formats: the problem-line tag, the
   comment byte, and whether an arc line may carry a transit field. *)
type format = { tag : string; comment : char; transit : bool }

let native = { tag = "ocr"; comment = '#'; transit = true }
let dimacs = { tag = "sp"; comment = 'c'; transit = false }

let fail lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

(* the shortest possible arc line, "a 1 2 3": a problem line declaring
   more arcs than [len / min_arc_line] cannot be honest *)
let min_arc_line = 7

let max_nodes = 1 lsl 20

(* a fast-path field holds at most 18 digits, so it always fits *)
let max_fast_digits = 18

(* [scan fmt buf len] parses the input [buf.[0 .. len-1]].  The byte
   [buf.[len]] is a '\n' sentinel: every line, the last one included,
   ends at a newline, and neither a space nor a digit run can pass
   one, so no loop below tests its index against [len]. *)
let scan fmt buf len =
  (* n < 0 until the problem line is read; the label arrays are sized
     from its arc count and filled in file order *)
  let n = ref (-1) and m = ref 0 and k = ref 0 in
  let empty = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
  let arc_src = ref empty and arc_dst = ref empty in
  let arc_weight = ref empty and arc_transit = ref empty in
  let problem lineno sn sm =
    if !n >= 0 then fail lineno "duplicate problem line";
    match (int_of_string_opt sn, int_of_string_opt sm) with
    | Some n', Some m' when n' >= 0 && m' >= 0 && m' <= len / min_arc_line ->
      (* isolated nodes cost no bytes, so n is bounded outright: the
         CSR build allocates O(n) *)
      if n' > max_nodes then
        fail lineno
          (Printf.sprintf "%d nodes exceed the limit of %d" n' max_nodes);
      let ia () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout m' in
      arc_src := ia ();
      arc_dst := ia ();
      arc_weight := ia ();
      arc_transit := ia ();
      n := n';
      m := m'
    | _ -> fail lineno "malformed problem line"
  in
  (* an arc line's fields, [src dst weight] and an optional transit,
     written by either path *)
  let fields = Array.make 4 0 in
  (* The general line language: trim, split on spaces, one integer
     conversion per token.  Every line the fast path declines lands
     here, so tabs, carriage returns, signs, radix prefixes,
     underscores and overlong numbers mean what int_of_string says.
     Returns the field count of an arc line, 0 for any other line. *)
  let slow_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = fmt.comment then 0
    else
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; tag; sn; sm ] when tag = fmt.tag ->
        problem lineno sn sm;
        0
      | "a" :: rest when fmt.transit || List.length rest = 3 -> (
        if !n < 0 then fail lineno "arc before problem line";
        match List.map int_of_string_opt rest with
        | ([ _; _; _ ] | [ _; _; _; _ ]) as xs when List.for_all Option.is_some xs ->
          List.iteri (fun i x -> fields.(i) <- Option.get x) xs;
          List.length xs
        | _ -> fail lineno "malformed arc line")
      | tok :: _ -> fail lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> 0
  in
  let max_fields = if fmt.transit then 4 else 3 in
  let pos = ref 0 and lineno = ref 0 in
  (* one more line than newlines, as String.split_on_char counts them:
     the sentinel ends the last one *)
  while !pos <= len do
    incr lineno;
    let p = !pos in
    let c = Bytes.unsafe_get buf p in
    (* The fast path: [a] then 3 (or, with transits, 4) space-separated
       [-?[0-9]{1,18}] fields, optional trailing spaces, end of line.
       [stop] becomes the line's end after the last field, or -1 to
       hand the line to [slow_line] untouched; it is -2 while the line
       is still being scanned. *)
    let nf = ref 0 and stop = ref (-1) in
    if c = 'a' && !n >= 0 then begin
      let i = ref (p + 1) in
      stop := -2;
      while !stop = -2 do
        let j = ref !i in
        while Bytes.unsafe_get buf !j = ' ' do incr j done;
        let j = !j in
        let cj = Bytes.unsafe_get buf j in
        if cj = '\n' then stop := if !nf >= 3 then j else -1
        else if j = !i || !nf = max_fields then stop := -1
        else begin
          let neg = cj = '-' in
          let d0 = if neg then j + 1 else j in
          let e = ref d0 and v = ref 0 in
          while
            let d = Bytes.unsafe_get buf !e in
            d >= '0' && d <= '9'
          do
            v := (10 * !v) + (Char.code (Bytes.unsafe_get buf !e) - 48);
            incr e
          done;
          let digits = !e - d0 in
          if digits = 0 || digits > max_fast_digits then stop := -1
          else begin
            Array.unsafe_set fields !nf (if neg then - !v else !v);
            incr nf;
            i := !e
          end
        end
      done
    end;
    let e =
      if !stop >= 0 then !stop
      else if c = '\n' then p
      else begin
        let e = Bytes.index_from buf p '\n' in
        if c <> fmt.comment then
          nf := slow_line !lineno (Bytes.sub_string buf p (e - p));
        e
      end
    in
    if !nf > 0 then begin
      (* the checks and messages Digraph.add_arc applied when the
         parsers went through a builder, then the declared-count rule *)
      let u = fields.(0) and v = fields.(1) and w = fields.(2) in
      let t = if !nf = 4 then fields.(3) else 1 in
      let lineno = !lineno in
      if u < 1 || u > !n || v < 1 || v > !n then
        fail lineno "Digraph.add_arc: endpoint out of range";
      if t < 0 then fail lineno "Digraph.add_arc: negative transit time";
      let i = !k in
      if i = !m then
        fail lineno (Printf.sprintf "more arcs than the %d declared" !m);
      Bigarray.Array1.unsafe_set !arc_src i (u - 1);
      Bigarray.Array1.unsafe_set !arc_dst i (v - 1);
      Bigarray.Array1.unsafe_set !arc_weight i w;
      Bigarray.Array1.unsafe_set !arc_transit i t;
      k := i + 1
    end;
    pos := e + 1
  done;
  if !n < 0 then failwith "Graph_io: missing problem line";
  if !k < !m then
    failwith
      (Printf.sprintf "Graph_io: problem line declares %d arcs, found %d" !m !k);
  Digraph.Unsafe.of_label_arrays ~n:!n ~m:!m ~arc_src:!arc_src
    ~arc_dst:!arc_dst ~arc_weight:!arc_weight ~arc_transit:!arc_transit

(* [s] copied into the scanner's buffer shape: its bytes, then the
   sentinel *)
let scan_string fmt s =
  let len = String.length s in
  let buf = Bytes.create (len + 1) in
  Bytes.blit_string s 0 buf 0 len;
  Bytes.unsafe_set buf len '\n';
  scan fmt buf len

let of_string = scan_string native
let of_dimacs = scan_string dimacs

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string g))

(* The file's bytes in a fresh buffer, read to end of file.  The
   channel's length only sizes the buffer: room for that many bytes,
   one more to see the end of the file without growing, and the
   sentinel.  A file that shrinks while it is read yields the bytes
   that were there, and one that grows (or a pipe, which has no
   length) grows the buffer, so the scanner, not the read, judges what
   arrived. *)
let load path =
  let fmt = if Filename.check_suffix path ".gr" then dimacs else native in
  let buf, len =
    In_channel.with_open_bin path (fun ic ->
        let hint =
          try Int64.to_int (In_channel.length ic) with Sys_error _ -> 0
        in
        let rec fill buf len =
          let room = Bytes.length buf - 1 - len in
          if room = 0 then fill (Bytes.extend buf 0 (Bytes.length buf)) len
          else
            match In_channel.input ic buf len room with
            | 0 -> (buf, len)
            | r -> fill buf (len + r)
        in
        fill (Bytes.create (hint + 2)) 0)
  in
  Bytes.unsafe_set buf len '\n';
  scan fmt buf len

let to_dimacs g =
  let buf = Buffer.create (32 * (Digraph.m g + 1)) in
  Buffer.add_string buf
    (Printf.sprintf "p sp %d %d\n" (Digraph.n g) (Digraph.m g));
  Digraph.iter_arcs g (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "a %d %d %d\n"
           (Digraph.src g a + 1) (Digraph.dst g a + 1) (Digraph.weight g a)));
  Buffer.contents buf

let to_dot ?(name = "g") ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  let hot = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace hot a ()) highlight;
  Digraph.iter_arcs g (fun a ->
      let attrs =
        if Hashtbl.mem hot a then
          Printf.sprintf "label=\"%d/%d\", color=red, penwidth=2.0"
            (Digraph.weight g a) (Digraph.transit g a)
        else
          Printf.sprintf "label=\"%d/%d\"" (Digraph.weight g a)
            (Digraph.transit g a)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %d -> %d [%s];\n" (Digraph.src g a)
           (Digraph.dst g a) attrs));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
