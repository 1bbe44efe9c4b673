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
   more arcs than [String.length s / min_arc_line] cannot be honest *)
let min_arc_line = 7

let max_nodes = 1 lsl 20

(* a fast-path field holds at most 18 digits, so it always fits *)
let max_fast_digits = 18

let scan fmt s =
  let len = String.length s in
  (* n < 0 until the problem line is read; the label arrays are sized
     from its arc count and filled in file order *)
  let n = ref (-1) and m = ref 0 and k = ref 0 in
  let empty = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
  let arc_src = ref empty and arc_dst = ref empty in
  let arc_weight = ref empty and arc_transit = ref empty in
  (* the checks and messages Digraph.add_arc applied when the parsers
     went through a builder, then the declared-count rule *)
  let add lineno u v w t =
    if u < 1 || u > !n || v < 1 || v > !n then
      fail lineno "Digraph.add_arc: endpoint out of range";
    if t < 0 then fail lineno "Digraph.add_arc: negative transit time";
    let i = !k in
    if i = !m then fail lineno (Printf.sprintf "more arcs than the %d declared" !m);
    Bigarray.Array1.unsafe_set !arc_src i (u - 1);
    Bigarray.Array1.unsafe_set !arc_dst i (v - 1);
    Bigarray.Array1.unsafe_set !arc_weight i w;
    Bigarray.Array1.unsafe_set !arc_transit i t;
    k := i + 1
  in
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
  (* The general line language: trim, split on spaces, one integer
     conversion per token.  Every line the fast path declines lands
     here, so tabs, carriage returns, signs, radix prefixes,
     underscores and overlong numbers mean what int_of_string says. *)
  let slow_line lineno line =
    let line = String.trim line in
    if line <> "" && line.[0] <> fmt.comment then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; tag; sn; sm ] when tag = fmt.tag -> problem lineno sn sm
      | "a" :: rest when fmt.transit || List.length rest = 3 -> (
        if !n < 0 then fail lineno "arc before problem line";
        match List.map int_of_string_opt rest with
        | [ Some u; Some v; Some w ] -> add lineno u v w 1
        | [ Some u; Some v; Some w; Some t ] -> add lineno u v w t
        | _ -> fail lineno "malformed arc line")
      | tok :: _ -> fail lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  (* The fast path: [a] then 3 (or, with transits, 4) space-separated
     [-?[0-9]{1,18}] fields, optional trailing spaces, end of line.
     Returns the index of the line's end (its newline or [len]) after
     adding the arc, or -1 to hand the line to [slow_line] untouched;
     [stop] is -2 while the line is still being scanned. *)
  let fields = Array.make 4 0 in
  let max_fields = if fmt.transit then 4 else 3 in
  let fast_arc lineno p =
    let i = ref (p + 1) and nf = ref 0 and stop = ref (-2) in
    while !stop = -2 do
      let j = ref !i in
      while !j < len && String.unsafe_get s !j = ' ' do incr j done;
      let j = !j in
      if j = len || String.unsafe_get s j = '\n' then
        stop := if !nf >= 3 then j else -1
      else if j = !i || !nf = max_fields then stop := -1
      else begin
        let neg = String.unsafe_get s j = '-' in
        let d0 = if neg then j + 1 else j in
        let e = ref d0 and v = ref 0 in
        while
          !e < len
          && !e - d0 <= max_fast_digits
          && String.unsafe_get s !e >= '0'
          && String.unsafe_get s !e <= '9'
        do
          v := (10 * !v) + (Char.code (String.unsafe_get s !e) - 48);
          incr e
        done;
        let digits = !e - d0 in
        if digits = 0 || digits > max_fast_digits then stop := -1
        else begin
          fields.(!nf) <- (if neg then - !v else !v);
          incr nf;
          i := !e
        end
      end
    done;
    if !stop >= 0 then
      add lineno fields.(0) fields.(1) fields.(2)
        (if !nf = 4 then fields.(3) else 1);
    !stop
  in
  let line_end p =
    match String.index_from_opt s p '\n' with Some e -> e | None -> len
  in
  let pos = ref 0 and lineno = ref 0 in
  (* one more line than newlines, as String.split_on_char counts them *)
  while !pos <= len do
    incr lineno;
    let p = !pos in
    let e =
      if p = len then len
      else
        let c = String.unsafe_get s p in
        if c = '\n' then p
        else if c = fmt.comment then line_end p
        else
          let e = if c = 'a' && !n >= 0 then fast_arc !lineno p else -1 in
          if e >= 0 then e
          else begin
            let e = line_end p in
            slow_line !lineno (String.sub s p (e - p));
            e
          end
    in
    pos := e + 1
  done;
  if !n < 0 then failwith "Graph_io: missing problem line";
  if !k < !m then
    failwith
      (Printf.sprintf "Graph_io: problem line declares %d arcs, found %d" !m !k);
  Digraph.Unsafe.of_label_arrays ~n:!n ~m:!m ~arc_src:!arc_src
    ~arc_dst:!arc_dst ~arc_weight:!arc_weight ~arc_transit:!arc_transit

let of_string = scan native
let of_dimacs = scan dimacs

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string g))

let slurp path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_file path = of_string (slurp path)

let load path =
  let fmt = if Filename.check_suffix path ".gr" then dimacs else native in
  scan fmt (slurp path)

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
