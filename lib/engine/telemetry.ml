(* The engine's counters: one table of rows, one store.

   Every counter the batch engine and the stream sessions keep is a row
   below, declared once with its Prometheus name and its kind.  A store
   is a Metrics registry holding one cell per row, so the Prometheus
   exposition is the registry itself, and the CSV, the JSON and the
   summary are views over the same cells.  The CSV/JSON key of a row is
   its name without the [ocr_] prefix and the [_total] suffix.

   A store is single-domain (the per-domain-instances rule Metrics and
   Stats follow): the coordinator records into its store, an executor
   task records into a shard of its own, and the coordinator folds the
   shard in at the join, in request order. *)

type kind =
  | Count
  | Portfolio
  | Ms
  | Op of (Stats.t -> int)
  | Per_alg of kind

(* [idx] numbers the rows of one scope (engine-wide or per algorithm) *)
type row = { name : string; key : string; kind : kind; idx : int }

let per_alg = function Per_alg _ -> true | _ -> false
let rows = ref [] (* reverse declaration order *)

(* every name starts with "ocr_" *)
let row ?key name kind =
  let key =
    match key with
    | Some k -> k
    | None ->
      let k = String.sub name 4 (String.length name - 4) in
      if String.ends_with ~suffix:"_total" k then
        String.sub k 0 (String.length k - 6)
      else k
  in
  let same x = per_alg x.kind = per_alg kind in
  let r = { name; key; kind; idx = List.length (List.filter same !rows) } in
  rows := r :: !rows;
  r

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let requests = row "ocr_requests_total" Count
let solved = row "ocr_solved_total" Count
let cache_hits = row "ocr_cache_hits_total" Count
let cache_misses = row "ocr_cache_misses_total" Count
let collisions = row "ocr_cache_collisions_total" Count
let verify_hit_potentials = row "ocr_verify_hit_potentials_total" Count
let verify_hit_probes = row "ocr_verify_hit_probes_total" Count
let acyclic = row "ocr_acyclic_total" Count
let timeouts = row "ocr_timeouts_total" Count
let rejected = row "ocr_rejected_total" Count
let fallbacks = row "ocr_fallbacks_total" Portfolio
let exact = row "ocr_exact_total" Count
let latency = row ~key:"wall_ms" "ocr_solve_latency_ms" Ms
let _ = row "ocr_ops_iterations_total" (Op (fun s -> s.Stats.iterations))
let _ = row "ocr_ops_relaxations_total" (Op (fun s -> s.Stats.relaxations))
let _ = row "ocr_ops_arcs_visited_total" (Op (fun s -> s.Stats.arcs_visited))

let _ =
  row "ocr_ops_cycles_examined_total" (Op (fun s -> s.Stats.cycles_examined))

let alg_runs = row "ocr_alg_*_runs_total" (Per_alg Count)
let alg_blowouts = row "ocr_alg_*_blowouts_total" (Per_alg Count)
let alg_wall_ms = row "ocr_alg_*_wall_ms" (Per_alg Ms)
let table = List.rev !rows

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

let engine_rows, alg_rows = List.partition (fun r -> not (per_alg r.kind)) table

let rec is_ms = function Ms -> true | Per_alg k -> is_ms k | _ -> false

let instantiate s alg =
  match String.index_opt s '*' with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ alg ^ String.sub s (i + 1) (String.length s - i - 1)

type cell = Counter of Metrics.counter | Histogram of Metrics.histogram

type t = {
  reg : Metrics.t;
  cells : cell array; (* the engine-wide rows, by [idx] *)
  algs : (string, cell array) Hashtbl.t; (* per-algorithm rows, by [idx] *)
}

let resolve reg rows alg =
  Array.of_list
    (List.map
       (fun r ->
         let name = instantiate r.name alg in
         if is_ms r.kind then Histogram (Metrics.histogram reg name)
         else Counter (Metrics.counter reg name))
       rows)

let create () =
  let reg = Metrics.create () in
  { reg; cells = resolve reg engine_rows ""; algs = Hashtbl.create 4 }

let snapshot t =
  let m = Metrics.create () in
  Metrics.merge_into ~into:m t.reg;
  m

let cell t r =
  if per_alg r.kind then invalid_arg ("Telemetry: per-algorithm row " ^ r.name);
  t.cells.(r.idx)

let counter_of = function
  | Counter c -> c
  | Histogram _ -> invalid_arg "Telemetry: not a counter row"

let histogram_of = function
  | Histogram h -> h
  | Counter _ -> invalid_arg "Telemetry: not a wall-time row"

let add t r n = Metrics.add (counter_of (cell t r)) n
let incr t r = add t r 1
let value t r = Metrics.counter_value (counter_of (cell t r))
let observe t r ms = Metrics.observe (histogram_of (cell t r)) ms
let histogram t r = histogram_of (cell t r)

let record_ops t stats =
  List.iter
    (fun r -> match r.kind with Op f -> add t r (f stats) | _ -> ())
    engine_rows

let alg_cells t alg =
  match Hashtbl.find_opt t.algs alg with
  | Some c -> c
  | None ->
    let c = resolve t.reg alg_rows alg in
    Hashtbl.replace t.algs alg c;
    c

let record_alg t alg count ~wall_ms =
  let c = alg_cells t alg in
  Metrics.incr (counter_of c.(count.idx));
  Metrics.observe (histogram_of c.(alg_wall_ms.idx)) wall_ms

let record_run t alg ~wall_ms = record_alg t alg alg_runs ~wall_ms

let record_blowout t alg ~wall_ms =
  record_alg t alg alg_blowouts ~wall_ms;
  incr t fallbacks

let merge_into ~into src =
  Metrics.merge_into ~into:into.reg src.reg;
  Hashtbl.iter (fun alg _ -> ignore (alg_cells into alg)) src.algs

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let hit_rate t =
  let n = value t requests in
  if n = 0 then 0.0
  else float_of_int (value t cache_hits) /. float_of_int n

let sorted_algs t =
  Hashtbl.fold (fun alg c acc -> (alg, c) :: acc) t.algs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Deterministic counters only — no wall times — so batch summaries are
   byte-identical across --jobs settings. *)
let pp_summary ppf t =
  let v = value t in
  Format.fprintf ppf
    "requests=%d solved=%d exact=%d acyclic=%d timeouts=%d rejected=%d@,"
    (v requests) (v solved) (v exact) (v acyclic) (v timeouts) (v rejected);
  Format.fprintf ppf "cache: hits=%d misses=%d collisions=%d hit-rate=%.2f@,"
    (v cache_hits) (v cache_misses) (v collisions) (hit_rate t);
  Format.fprintf ppf "verify hits: potentials=%d probes=%d@,"
    (v verify_hit_potentials) (v verify_hit_probes);
  Format.fprintf ppf "portfolio: fallbacks=%d" (v fallbacks);
  List.iter
    (fun (alg, c) ->
      Format.fprintf ppf "@,alg %s: runs=%d blowouts=%d" alg
        (Metrics.counter_value (counter_of c.(alg_runs.idx)))
        (Metrics.counter_value (counter_of c.(alg_blowouts.idx))))
    (sorted_algs t)

let cell_text = function
  | Counter c -> string_of_int (Metrics.counter_value c)
  | Histogram h -> Printf.sprintf "%.3f" (Metrics.hist_sum h)

(* The files list the engine-wide rows grouped by kind, in table order
   within a kind, then each algorithm's rows, algorithms by name. *)
let file_rank = function
  | Count -> 0
  | Portfolio -> 1
  | Ms -> 2
  | Op _ | Per_alg _ -> 3

let file_rows =
  List.stable_sort
    (fun a b -> compare (file_rank a.kind) (file_rank b.kind))
    engine_rows

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "metric,value\n";
  (* keys embed algorithm names: RFC 4180 quoting keeps a name holding a
     comma, quote or newline on one record *)
  let line key cell =
    Buffer.add_string b
      (Printf.sprintf "%s,%s\n" (Obs.csv_field key) (cell_text cell))
  in
  List.iter (fun r -> line r.key t.cells.(r.idx)) file_rows;
  List.iter
    (fun (alg, c) ->
      List.iter (fun r -> line (instantiate r.key alg) c.(r.idx)) alg_rows)
    (sorted_algs t);
  Buffer.contents b

(* The JSON lists the rows the CSV lists, nesting each algorithm's
   rows in one object of the "algorithms" array, keyed without their
   "alg_*_" part. *)
let to_json t =
  let field k v = Obs.json_string k ^ ": " ^ v in
  let scalars =
    List.map (fun r -> field r.key (cell_text t.cells.(r.idx))) file_rows
  in
  let alg (name, c) =
    let inner r =
      let i = String.index r.key '*' + 2 in
      field (String.sub r.key i (String.length r.key - i)) (cell_text c.(r.idx))
    in
    let fields = field "name" (Obs.json_string name) :: List.map inner alg_rows in
    "{" ^ String.concat ", " fields ^ "}"
  in
  let algorithms =
    "[" ^ String.concat ", " (List.map alg (sorted_algs t)) ^ "]"
  in
  "{" ^ String.concat ", " (scalars @ [ field "algorithms" algorithms ]) ^ "}"
