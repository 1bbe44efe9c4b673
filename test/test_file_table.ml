(* File_table and Engine.solve_path: a cache hit on an unchanged file
   costs one stat, and anything that changes the file — or a request
   asking for verification — reads it again.  Parses are counted as
   engine.load spans, the one span around the one parse. *)

let sp_load = Obs.intern "engine.load"

(* [f ()] with tracing on, and the number of files it parsed *)
let parses f =
  Trace.configure ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable f in
  let n =
    List.length
      (List.filter
         (fun e -> e.Trace.ev_id = sp_load && e.Trace.ev_kind = `Begin)
         (Trace.events ()))
  in
  Trace.configure ();
  (r, n)

(* a two-node cycle of mean (w1 + w2) / 2; single-digit weights keep
   the file's size fixed *)
let pair w1 w2 = Digraph.of_arcs 2 [ (0, 1, w1, 1); (1, 0, w2, 1) ]

(* far outside the racy window *)
let old = 1_000_000_000.0

let write ?(mtime = old) path g =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Graph_io.to_string g));
  Unix.utimes path mtime mtime

let with_file f =
  let path = Filename.temp_file "ocr_file_table" ".ocr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_engine ?(cache_size = 16) f =
  let eng = Engine.create ~cache_size () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) (fun () -> f eng)

let spec ?(verify = false) path = { (Request.default_spec path) with Request.verify }

let line eng ~id spec =
  match Engine.solve_path eng ~id spec with
  | Ok r -> Engine.response_line r
  | Error e -> "error " ^ e

(* the reference answers: the file loaded afresh for every request,
   through Engine.solve on an engine with the same request history *)
let reference path specs =
  with_engine (fun eng ->
      List.mapi
        (fun i spec ->
          Engine.response_line
            (Engine.solve eng
               (Request.make ~id:(i + 1) ~graph:(Graph_io.load path) spec)))
        specs)

let test_hit_reads_nothing () =
  with_file (fun path ->
      write path (pair 3 5);
      with_engine (fun eng ->
          let l1, n1 = parses (fun () -> line eng ~id:1 (spec path)) in
          let l2, n2 = parses (fun () -> line eng ~id:2 (spec path)) in
          Alcotest.(check int) "first request parses" 1 n1;
          Alcotest.(check int) "second request parses nothing" 0 n2;
          Alcotest.(check (list string))
            "answers" (reference path [ spec path; spec path ]) [ l1; l2 ]))

(* the file changes under the engine between two requests; the second
   must be re-parsed and answered from the new bytes, like a fresh
   engine would *)
let check_change ~change =
  with_file (fun path ->
      write path (pair 3 5);
      with_engine (fun eng ->
          ignore (line eng ~id:1 (spec path));
          change path;
          let l, n = parses (fun () -> line eng ~id:2 (spec path)) in
          Alcotest.(check int) "re-parsed" 1 n;
          let fresh =
            with_engine (fun e ->
                Engine.response_line
                  (Engine.solve e
                     (Request.make ~id:2 ~graph:(Graph_io.load path) (spec path))))
          in
          Alcotest.(check string) "answer from the new bytes" fresh l))

let test_size_change () = check_change ~change:(fun path -> write path (pair 13 5))

(* same size and mtime: only the inode tells the files apart *)
let test_rename_same_stat () =
  check_change ~change:(fun path ->
      let tmp = path ^ ".new" in
      write tmp (pair 7 9);
      Unix.rename tmp path)

let test_racy_never_recorded () =
  with_file (fun path ->
      write ~mtime:(Unix.gettimeofday ()) path (pair 3 5);
      with_engine (fun eng ->
          let _, n =
            parses (fun () ->
                ignore (line eng ~id:1 (spec path));
                ignore (line eng ~id:2 (spec path)))
          in
          Alcotest.(check int) "both requests parse" 2 n);
      write ~mtime:(Unix.gettimeofday () -. 1.0) path (pair 3 5);
      let t = File_table.create ~capacity:4 in
      Alcotest.(check bool) "read" true (File_table.fingerprint t path <> None);
      Alcotest.(check int) "1 s old: not recorded" 0 (File_table.length t))

let test_verify_reads_disk () =
  with_file (fun path ->
      write path (pair 3 5);
      with_engine (fun eng ->
          let l1 = line eng ~id:1 (spec path) in
          let l2, n = parses (fun () -> line eng ~id:2 (spec ~verify:true path)) in
          Alcotest.(check int) "verify parses" 1 n;
          Alcotest.(check (list string))
            "certified answer"
            (reference path [ spec path; spec ~verify:true path ])
            [ l1; l2 ]))

let test_capacity () =
  let paths = List.init 3 (fun _ -> Filename.temp_file "ocr_file_table" ".ocr") in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      List.iteri (fun i p -> write p (pair i 1)) paths;
      let fill capacity =
        let t = File_table.create ~capacity in
        List.iter
          (fun p ->
            Alcotest.(check bool)
              "fingerprint of the file" true
              (File_table.fingerprint t p
               = Some (Fingerprint.of_graph (Graph_io.load p))))
          paths;
        File_table.length t
      in
      Alcotest.(check int) "capacity 2" 2 (fill 2);
      Alcotest.(check int) "capacity 0" 0 (fill 0);
      Alcotest.(check bool)
        "missing path" true
        (File_table.fingerprint (File_table.create ~capacity:2) "/nonexistent/g.ocr"
         = None);
      with_engine ~cache_size:0 (fun eng ->
          let p = List.hd paths in
          let _, n =
            parses (fun () ->
                ignore (line eng ~id:1 (spec p));
                ignore (line eng ~id:2 (spec p)))
          in
          Alcotest.(check int) "cache-size 0: every request parses" 2 n))

let suite =
  [
    Alcotest.test_case "old file: second request parses nothing" `Quick
      test_hit_reads_nothing;
    Alcotest.test_case "size change re-parses" `Quick test_size_change;
    Alcotest.test_case "rename over, same size and mtime, re-parses" `Quick
      test_rename_same_stat;
    Alcotest.test_case "file modified < 2 s ago never recorded" `Quick
      test_racy_never_recorded;
    Alcotest.test_case "verify=true parses and certifies" `Quick
      test_verify_reads_disk;
    Alcotest.test_case "at most cache_size entries, none at 0" `Quick
      test_capacity;
  ]
