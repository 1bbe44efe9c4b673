(* CI perf-regression gate.

     check_regress.exe BASELINE.json CURRENT.json [BASELINE CURRENT ...]
     check_regress.exe --speedup CURRENT.json JOBS MIN [pairs ...]

   Each pair is a committed baseline (BENCH_pr*.json, recorded on the
   container that grew this repo) against the JSON a CI smoke run just
   wrote (bench-e1N.json).  Absolute CI timings are noisy and the
   hardware differs, so the gate is deliberately loose: a timing
   metric fails only when

     current > 2.5 * baseline + 1.0   (milliseconds)

   i.e. a >2.5x slowdown with a 1 ms slack floor so micro-rows (tens of
   microseconds) never trip on scheduler jitter.  Speedups, ratios and
   counts are never gated by pairs.  What *is* gated hard, with no
   tolerance, is every "identical", "exact_matches_float" and
   "access_complete" flag in the current file: the first encodes the
   determinism guarantee (parallel report bit-equal to jobs=1), the
   second the exact-answer promise (both lanes certify to the same
   rational, float within 1 ulp), the third the access log's
   one-line-per-admitted-request contract — a false in any of them is
   a correctness bug, not noise.

   Core-count awareness: every bench file stamps "host_cores"
   (Domain.recommended_domain_count at recording time).  When baseline
   and current were recorded on hosts with different core counts, the
   timing comparison of every parallel row — jobs>1, or a workers>1
   cluster run — is skipped with a notice: a jobs=4 timing from a
   1-core box against one from an 8-core box is apples against oranges
   in both directions, and a 2-worker cluster's drain rate depends on
   the cores the same way.  Sequential rows and the identical flags
   still gate.

   The --speedup mode is the multicore promise: it reads CURRENT.json,
   finds every row with "jobs" = JOBS and a "speedup" field, and fails
   unless the best of them is >= MIN.  On a host reporting fewer than
   JOBS cores it prints a notice and passes (the promise only binds
   where the cores exist).  Remaining arguments are processed as
   ordinary baseline/current pairs.

   Rows inside arrays are matched by their discriminator fields
   (family/n/m/jobs/components_edited), not by position, so reordering
   or extending an experiment does not break the gate; a baseline row
   with no counterpart in the current file is reported but only warns
   (a smoke run may legitimately cover fewer rows than the committed
   full run). *)

open Trace_read

(* a bench file, parsed; an unreadable or malformed one ends the run
   with exit code 2 *)
let load path =
  match read_file path with
  | Error msg ->
    prerr_endline msg;
    exit 2
  | Ok contents -> (
    match parse_json contents with
    | Ok j -> j
    | Error msg ->
      prerr_endline ("malformed JSON: " ^ msg);
      exit 2)

(* ------------------------------------------------------------------ *)
(* Flattening: every leaf becomes (path, leaf).  Array elements that   *)
(* are objects are keyed by their discriminator fields so rows match   *)
(* across files regardless of order; other elements fall back to the   *)
(* index.                                                              *)
(* ------------------------------------------------------------------ *)

let discriminators = [ "family"; "graph"; "problem"; "n"; "m"; "jobs";
                       "workload"; "trace"; "obs"; "components_edited";
                       "cluster"; "workers" ]

let row_key = function
  | Obj fields ->
    let parts =
      List.filter_map
        (fun d ->
          match List.assoc_opt d fields with
          | Some (Str s) -> Some (Printf.sprintf "%s=%s" d s)
          | Some (Num f) -> Some (Printf.sprintf "%s=%g" d f)
          | _ -> None)
        discriminators
    in
    if parts = [] then None else Some (String.concat "," parts)
  | _ -> None

let flatten (j : json) : (string * json) list =
  let acc = ref [] in
  let rec go path j =
    match j with
    | Obj fields ->
      List.iter (fun (k, v) -> go (path ^ "/" ^ k) v) fields
    | Arr elts ->
      List.iteri
        (fun i e ->
          let key =
            match row_key e with
            | Some k -> Printf.sprintf "%s[%s]" path k
            | None -> Printf.sprintf "%s[%d]" path i
          in
          go key e)
        elts
    | leaf -> acc := (path, leaf) :: !acc
  in
  go "" j;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

let slowdown_factor = 2.5
let slack_ms = 1.0

let leaf_name path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* only wall-clock metrics are gated; speedups, ns/arc, counts and
   rates depend on them and would double-report the same regression *)
let gated_metric path =
  List.mem (leaf_name path)
    [ "ms"; "ms_per_solve"; "ms_per_req"; "one_pass_ms"; "induced_scan_ms";
      "cold_ms"; "warm_ms_median"; "cold_ms_median"; "exact_ms"; "float_ms" ]

let failures = ref 0
let warnings = ref 0
let checked = ref 0

(* the top-level "host_cores" stamp of a bench file *)
let host_cores_of = function
  | Obj fields -> (
    match List.assoc_opt "host_cores" fields with
    | Some (Num f) -> Some (int_of_float f)
    | _ -> None)
  | _ -> None

(* a numeric discriminator baked into a flattened row path by
   [row_key] (".../rows[family=sprand,n=4096,jobs=4]/ms_per_solve"
   with tag "jobs=" -> Some 4) *)
let path_num tag path =
  let tl = String.length tag in
  let n = String.length path in
  let rec find i =
    if i + tl > n then None
    else if String.sub path i tl = tag then begin
      let j = ref (i + tl) in
      while
        !j < n && (match path.[!j] with '0' .. '9' -> true | _ -> false)
      do
        incr j
      done;
      int_of_string_opt (String.sub path (i + tl) (!j - (i + tl)))
    end
    else find (i + 1)
  in
  find 0

let path_jobs path = path_num "jobs=" path

(* whether a row's timing depends on the host's parallelism: a jobs>1
   solve or a workers>1 cluster run — exactly the rows whose timings
   are not comparable across hosts with different core counts *)
let path_parallel path =
  (match path_jobs path with Some j -> j > 1 | None -> false)
  || (match path_num "workers=" path with Some w -> w > 1 | None -> false)

let check_pair ~baseline ~current =
  Printf.printf "== %s vs %s\n" baseline current;
  let base_json = load baseline in
  let cur_json = load current in
  let cores_differ =
    match (host_cores_of base_json, host_cores_of cur_json) with
    | Some b, Some c -> b <> c
    | _ -> false
  in
  if cores_differ then
    Printf.printf
      "  note: baseline and current recorded on different core counts; \
       jobs>1 and workers>1 timing rows are skipped\n";
  let base = flatten base_json in
  let cur = flatten cur_json in
  (* determinism and exact-answer flags in the *current* run gate
     unconditionally *)
  List.iter
    (fun (path, leaf) ->
      match leaf with
      | Bool ok when leaf_name path = "identical" ->
        incr checked;
        if not ok then begin
          incr failures;
          Printf.printf "FAIL %s: parallel result not identical to jobs=1\n"
            path
        end
      | Bool ok when leaf_name path = "exact_matches_float" ->
        incr checked;
        if not ok then begin
          incr failures;
          Printf.printf
            "FAIL %s: exact lane and float portfolio certify different \
             rationals\n"
            path
        end
      | Bool ok when leaf_name path = "access_complete" ->
        incr checked;
        if not ok then begin
          incr failures;
          Printf.printf
            "FAIL %s: access log dropped lines for admitted requests\n" path
        end
      | _ -> ())
    cur;
  List.iter
    (fun (path, leaf) ->
      match leaf with
      | Num _ when gated_metric path && cores_differ && path_parallel path ->
        Printf.printf "  skip %s: differing host core counts\n" path
      | Num b when gated_metric path -> (
        match List.assoc_opt path cur with
        | Some (Num c) ->
          incr checked;
          let limit = (slowdown_factor *. b) +. slack_ms in
          if c > limit then begin
            incr failures;
            Printf.printf "FAIL %s: %.4f ms vs baseline %.4f ms (limit %.4f)\n"
              path c b limit
          end
          else Printf.printf "  ok %s: %.4f ms (baseline %.4f)\n" path c b
        | Some _ ->
          incr failures;
          Printf.printf "FAIL %s: expected a number in the current run\n" path
        | None ->
          incr warnings;
          Printf.printf "  warn %s: in baseline but not in current run\n" path)
      | _ -> ())
    base

(* The multicore promise: the best "speedup" among rows with the given
   jobs count must reach [min_speedup] — but only on a host with at
   least that many cores; elsewhere the curve cannot physically show a
   speedup and the gate passes with a notice. *)
let check_speedup ~file ~jobs ~min_speedup =
  let j = load file in
  match host_cores_of j with
  | Some cores when cores < jobs ->
    Printf.printf
      "notice: %s records host_cores=%d < jobs=%d (this host detects %d); \
       multicore speedup gate skipped (needs a >=%d-core host)\n"
      file cores jobs
      (Domain.recommended_domain_count ())
      jobs
  | cores ->
    if cores = None then begin
      incr warnings;
      Printf.printf "  warn %s: no host_cores stamp; gating speedup anyway\n"
        file
    end;
    let best =
      List.fold_left
        (fun acc (path, leaf) ->
          match leaf with
          | Num v when leaf_name path = "speedup" && path_jobs path = Some jobs
            -> (
            match acc with Some b when b >= v -> acc | _ -> Some v)
          | _ -> acc)
        None (flatten j)
    in
    incr checked;
    (match best with
    | None ->
      incr failures;
      Printf.printf "FAIL %s: no jobs=%d rows with a speedup field\n" file jobs
    | Some b when b < min_speedup ->
      incr failures;
      Printf.printf "FAIL %s: best jobs=%d speedup %.2fx < required %.2fx\n"
        file jobs b min_speedup
    | Some b ->
      Printf.printf "  ok %s: best jobs=%d speedup %.2fx (>= %.2fx)\n" file
        jobs b min_speedup)

let usage () =
  prerr_endline
    "usage: check_regress [--speedup CURRENT.json JOBS MIN] BASELINE.json \
     CURRENT.json [B C ...]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let speedup, args =
    match args with
    | "--speedup" :: file :: jobs :: min_s :: rest -> (
      match (int_of_string_opt jobs, float_of_string_opt min_s) with
      | Some j, Some m when j >= 1 -> (Some (file, j, m), rest)
      | _ -> usage ())
    | "--speedup" :: _ -> usage ()
    | args -> (None, args)
  in
  let rec pairs = function
    | [] -> []
    | b :: c :: rest -> (b, c) :: pairs rest
    | [ _ ] -> usage ()
  in
  let ps = pairs args in
  if ps = [] && speedup = None then usage ();
  (match speedup with
  | Some (file, jobs, min_speedup) -> check_speedup ~file ~jobs ~min_speedup
  | None -> ());
  List.iter (fun (b, c) -> check_pair ~baseline:b ~current:c) ps;
  Printf.printf
    "%d metric(s) checked, %d warning(s), %d failure(s); gate: current <= \
     %.1fx baseline + %.1f ms, identical flags must hold\n"
    !checked !warnings !failures slowdown_factor slack_ms;
  if !failures > 0 then exit 1
