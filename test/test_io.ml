let sample () =
  Digraph.of_arcs 3 [ (0, 1, -5, 1); (1, 2, 10000, 7); (2, 0, 0, 2) ]

let test_roundtrip () =
  let g = sample () in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "identical" true (Digraph.equal_structure g g')

let test_format_details () =
  let s = Graph_io.to_string (sample ()) in
  Alcotest.(check bool) "problem line" true
    (String.length s > 0 && String.sub s 0 9 = "p ocr 3 3")

let test_parse_defaults_and_comments () =
  let g =
    Graph_io.of_string
      "# a comment\np ocr 2 2\na 1 2 5\n\na 2 1 -3 4\n# trailing comment\n"
  in
  Alcotest.(check int) "m" 2 (Digraph.m g);
  Alcotest.(check int) "default transit" 1 (Digraph.transit g 0);
  Alcotest.(check int) "explicit transit" 4 (Digraph.transit g 1);
  Alcotest.(check int) "1-indexed in file, 0-indexed in API" 0 (Digraph.src g 0)

let expect_parse_error name input =
  Alcotest.test_case name `Quick (fun () ->
      match Graph_io.of_string input with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected a parse failure")

let test_file_io () =
  let path = Filename.temp_file "ocr_test" ".ocr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = sample () in
      Graph_io.write_file path g;
      Alcotest.(check bool) "file roundtrip" true
        (Digraph.equal_structure g (Graph_io.load path)))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot () =
  let dot = Graph_io.to_dot ~highlight:[ 0 ] (sample ()) in
  Alcotest.(check bool) "mentions digraph" true
    (String.length dot > 8 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "has highlight colour" true
    (contains ~needle:"color=red" dot);
  Alcotest.(check bool) "only one highlighted arc" true
    (not (contains ~needle:"color=red" (Graph_io.to_dot (sample ()))))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"io: to_string/of_string roundtrip" ~count:200
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ~tmax:5 ())
    (fun g -> Digraph.equal_structure g (Graph_io.of_string (Graph_io.to_string g)))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "format details" `Quick test_format_details;
    Alcotest.test_case "defaults and comments" `Quick
      test_parse_defaults_and_comments;
    expect_parse_error "arc before problem line" "a 1 2 3\n";
    expect_parse_error "duplicate problem line" "p ocr 1 0\np ocr 1 0\n";
    expect_parse_error "bad record" "p ocr 1 0\nx 1 2\n";
    expect_parse_error "malformed arc" "p ocr 2 1\na 1 two 3\n";
    expect_parse_error "missing problem line" "# nothing\n";
    Alcotest.test_case "file io" `Quick test_file_io;
    Alcotest.test_case "dot export" `Quick test_dot;
  ]
  @ Helpers.qtests [ qcheck_roundtrip ]

(* the parser must fail cleanly (Failure), never crash, on junk input *)
let qcheck_parser_never_crashes =
  QCheck.Test.make ~name:"io: parser raises Failure, never crashes" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      match Graph_io.of_string s with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let suite = suite @ Helpers.qtests [ qcheck_parser_never_crashes ]

let test_dimacs_roundtrip () =
  let g = Digraph.of_weighted_arcs 3 [ (0, 1, 5); (1, 2, -2); (2, 0, 7) ] in
  let g' = Graph_io.of_dimacs (Graph_io.to_dimacs g) in
  Alcotest.(check bool) "same structure" true (Digraph.equal_structure g g')

let test_dimacs_parse () =
  let g =
    Graph_io.of_dimacs
      "c SPRAND output\np sp 2 2\na 1 2 10\nc middle comment\na 2 1 3\n"
  in
  Alcotest.(check int) "n" 2 (Digraph.n g);
  Alcotest.(check int) "weight" 10 (Digraph.weight g 0);
  Alcotest.(check int) "transit defaults to 1" 1 (Digraph.transit g 0);
  Alcotest.(check bool) "bad format rejected" true
    (match Graph_io.of_dimacs "p ocr 1 0\n" with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
      Alcotest.test_case "dimacs parsing" `Quick test_dimacs_parse;
    ]

(* ------------------------------------------------------------------ *)
(* The one scanner vs the line-splitting oracle                       *)
(* ------------------------------------------------------------------ *)

(* Both loaders rendered to one comparable string: the graph, or the
   exact Failure message. *)
let outcome parse s =
  match parse s with
  | g -> "ok " ^ Graph_io.to_string g
  | exception Failure msg -> "failure " ^ msg

(* Fragments a mutation splices in: every byte the fast path must
   decline (tab, CR, sign, underscore, radix prefix, comment bytes)
   and numbers on both sides of its 18-digit limit. *)
let fragments =
  [| " "; "  "; "\n"; "\t"; "\r"; "+"; "-"; "_"; "x"; "#"; "c"; "a"; "p";
     "0"; "1"; "3"; "9"; "1_000"; "0x1F"; "+5"; "-0";
     "123456789012345678"; "-123456789012345678"; "1234567890123456789";
     "9999999999999999999"; "-4611686018427387905"; "99999999999999999999";
     "a 1 1 1\n"; "\n  a 1 2 3"; "a 2 1 -4 0\n"; "\np ocr 3 3\n";
     "\np sp 3 3\n"; "# note\n"; "c note\n" |]

let mutate rng text =
  let s = ref text in
  let pos () = Rng.int rng (String.length !s + 1) in
  let splice i j frag =
    s := String.sub !s 0 i ^ frag ^ String.sub !s j (String.length !s - j)
  in
  let with_line f =
    let ls = Array.of_list (String.split_on_char '\n' !s) in
    let i = Rng.int rng (Array.length ls) in
    s := String.concat "\n" (Array.to_list (f ls i))
  in
  for _ = 1 to Rng.int rng 5 do
    match Rng.int rng 6 with
    | 0 | 1 ->
      let i = pos () in
      splice i i fragments.(Rng.int rng (Array.length fragments))
    | 2 when String.length !s > 0 ->
      let i = Rng.int rng (String.length !s) in
      splice i (min (String.length !s) (i + 1 + Rng.int rng 3)) ""
    | 3 when String.length !s > 0 ->
      let i = Rng.int rng (String.length !s) in
      splice i (i + 1) fragments.(Rng.int rng (Array.length fragments))
    | 4 ->
      (* duplicate a line: an arc past the declared count *)
      with_line (fun ls i ->
          Array.append (Array.sub ls 0 (i + 1))
            (Array.sub ls i (Array.length ls - i)))
    | _ ->
      (* drop a line: a short file *)
      with_line (fun ls i ->
          Array.append (Array.sub ls 0 i)
            (Array.sub ls (i + 1) (Array.length ls - i - 1)))
  done;
  if Rng.int rng 8 = 0 then
    s := String.concat "\r\n" (String.split_on_char '\n' !s);
  !s

let gen_mutated render =
  let open QCheck.Gen in
  let* g = Helpers.gen_any_graph ~max_n:6 ~max_m:10 ~wlo:(-100_000) ~whi:100_000 ~tmax:4 () in
  let+ seed = int_range 0 1_000_000 in
  mutate (Rng.create seed) (render g)

(* [text] written to a file with suffix [ext] (rewriting it in place,
   so a shorter text follows a longer one in the same file), loaded
   with Graph_io.load *)
let load_outcome ext =
  let path = Filename.temp_file "ocr_scan" ext in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  fun text ->
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    outcome Graph_io.load path

let qcheck_scanner_matches_oracle name render =
  let load_ocr = load_outcome ".ocr" and load_gr = load_outcome ".gr" in
  QCheck.Test.make
    ~name:(Printf.sprintf "io: scanner = line-splitting oracle on mutated %s" name)
    ~count:1500
    (QCheck.make ~print:String.escaped (gen_mutated render))
    (fun s ->
      (* each input goes through both formats' loaders, from the
         string and from a file; the text less its last byte (no final
         newline, for most) is loaded right after it from the same
         file *)
      let shorter = String.sub s 0 (max 0 (String.length s - 1)) in
      List.for_all
        (fun s ->
          let native = outcome Helpers.oracle_of_string s
          and dimacs = outcome Helpers.oracle_of_dimacs s in
          outcome Graph_io.of_string s = native
          && outcome Graph_io.of_dimacs s = dimacs
          && load_ocr s = native
          && load_gr s = dimacs)
        [ s; shorter ])

(* With the declared count honoured, the oracle is the old parser
   verbatim: no hook fires, so nothing but the count rule moved. *)
let qcheck_count_rule_only_change =
  QCheck.Test.make ~name:"io: honest counts parse as before" ~count:300
    (Helpers.arb_any_graph ~max_n:10 ~max_m:25 ~tmax:5 ())
    (fun g ->
      let s = Graph_io.to_string g and d = Graph_io.to_dimacs g in
      outcome Graph_io.of_string s = outcome Reference.of_string s
      && outcome Graph_io.of_dimacs d = outcome Reference.of_dimacs d)

let expect_message name parse input msg =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name ("failure " ^ msg) (outcome parse input))

let suite =
  suite
  @ [
      expect_message "count: arc past the declared count" Graph_io.of_string
        "p ocr 2 1\na 1 2 3\na 2 1 3\na 1 1 1\n"
        "Graph_io: line 3: more arcs than the 1 declared";
      expect_message "count: short file" Graph_io.of_dimacs
        "c generated by hand\np sp 2 3\na 1 2 3\n"
        "Graph_io: problem line declares 3 arcs, found 1";
      expect_message "count: negative" Graph_io.of_string "p ocr 2 -1\n"
        "Graph_io: line 1: malformed problem line";
      expect_message "count: more than the input can hold" Graph_io.of_string
        "p ocr 2 3\na 1 2 3\n" "Graph_io: line 1: malformed problem line";
      expect_message "slow path: tab-separated arc" Graph_io.of_string
        "p ocr 2 1\na\t1 2 3\n" "Graph_io: line 2: unknown record \"a\\t1\"";
      expect_message "slow path: dimacs arc with a transit" Graph_io.of_dimacs
        "p sp 2 1\na 1 2 3 4\n" "Graph_io: line 2: unknown record \"a\"";
      expect_message "fast path: endpoint out of range" Graph_io.of_string
        "p ocr 2 1\na 1 3 3\n"
        "Graph_io: line 2: Digraph.add_arc: endpoint out of range";
      Alcotest.test_case "load: a file with no length" `Quick (fun () ->
          (* a FIFO reports no length, so the read runs on the hint's
             fallback and grows its buffer to end of file *)
          let dir = Filename.temp_file "ocr_fifo" "" in
          Sys.remove dir;
          Unix.mkdir dir 0o700;
          let path = Filename.concat dir "g.ocr" in
          Unix.mkfifo path 0o600;
          let g = sample () in
          let writer =
            Domain.spawn (fun () ->
                Out_channel.with_open_bin path (fun oc ->
                    output_string oc (Graph_io.to_string g)))
          in
          let loaded = Graph_io.load path in
          Domain.join writer;
          Sys.remove path;
          Unix.rmdir dir;
          Alcotest.(check bool) "fifo roundtrip" true
            (Digraph.equal_structure g loaded));
      Alcotest.test_case "slow path: int_of_string language" `Quick (fun () ->
          let g =
            Graph_io.of_string
              "p ocr 2 3\r\na +1 0x2 1_000\r\n  a 2 1 -5 0\t\na 1 1 \
               1234567890123456789 2\n"
          in
          Alcotest.(check (list int)) "weights" [ 1000; -5; 1234567890123456789 ]
            (List.init 3 (Digraph.weight g));
          Alcotest.(check (list int)) "transits" [ 1; 0; 2 ]
            (List.init 3 (Digraph.transit g)));
    ]
  @ Helpers.qtests
      [
        qcheck_scanner_matches_oracle "native text" Graph_io.to_string;
        qcheck_scanner_matches_oracle "DIMACS text" Graph_io.to_dimacs;
        qcheck_count_rule_only_change;
      ]
