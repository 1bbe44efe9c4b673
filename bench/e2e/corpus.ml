(* Workload inputs, all derived from the seed: graph files written to a
   private directory, the request sequences the front-ends receive, and
   the reference answers every reply is checked against.  The program
   under test only ever sees the generated files and request lines. *)

type workload = Serve_hot | Serve_cold | Stream_edit | Cluster_mix

let workloads =
  [
    ("serve-hot", Serve_hot);
    ("serve-cold", Serve_cold);
    ("stream-edit", Stream_edit);
    ("cluster-mix", Cluster_mix);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* ------------------------------------------------------------------ *)
(* graph files *)

(* How to rebuild a file's graph: references are computed from
   regenerated graphs, so a corpus of thousands of files never has to
   sit in memory. *)
type recipe =
  | Sprand of { n : int; seed : int }  (** m = 3n, transits 1..10 *)
  | Circuit of { registers : int; seed : int }
  | Many_scc of { components : int; size : int; seed : int }

let build = function
  | Sprand { n; seed } ->
    Sprand.generate ~seed ~transits:(1, 10) ~n ~m:(3 * n) ()
  | Circuit { registers; seed } -> Circuit.generate ~seed ~registers ()
  | Many_scc { components; size; seed } ->
    Families.many_scc ~seed ~components ~size ()

type file = { path : string; recipe : recipe }

(* The bytes of Graph_io.to_string, without its Printf per arc: writing
   a corpus of thousands of files is most of a run's set-up. *)
let write_file f =
  let g = build f.recipe in
  let b = Buffer.create (20 * (Digraph.m g + 1)) in
  let int i = Buffer.add_string b (string_of_int i) in
  Buffer.add_string b "p ocr ";
  int (Digraph.n g);
  Buffer.add_char b ' ';
  int (Digraph.m g);
  Buffer.add_char b '\n';
  Digraph.iter_arcs g (fun a ->
      Buffer.add_string b "a ";
      int (Digraph.src g a + 1);
      Buffer.add_char b ' ';
      int (Digraph.dst g a + 1);
      Buffer.add_char b ' ';
      int (Digraph.weight g a);
      Buffer.add_char b ' ';
      int (Digraph.transit g a);
      Buffer.add_char b '\n');
  Out_channel.with_open_bin f.path (fun oc -> Buffer.output_buffer oc b);
  g

(* Array.init over two domains: generating the corpus and solving its
   references sit outside every timed phase, and both split evenly. *)
let par_init n f =
  if n < 2 then Array.init n f
  else
  let half = n / 2 in
  let other = Domain.spawn (fun () -> Array.init (n - half) (fun i -> f (half + i))) in
  match Array.init half f with
  | mine -> Array.append mine (Domain.join other)
  | exception e ->
    (try ignore (Domain.join other) with _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* serve-protocol requests *)

type request = {
  file : file;
  problem : Solver.problem;
  objective : Solver.objective;
  exact_lane : bool;  (** algorithm=exact: the Stern–Brocot lane *)
  exact_mode : bool;  (** mode=exact: answer with the rational too *)
  verify : bool;
}

let line r =
  String.concat " "
    ([
       r.file.path;
       "problem=" ^ Request.problem_name r.problem;
       "objective=" ^ Request.objective_name r.objective;
     ]
    @ (if r.exact_lane then [ "algorithm=exact" ] else [])
    @ (if r.exact_mode then [ "mode=exact" ] else [])
    @ if r.verify then [ "verify=true" ] else [])

let chance st p = Random.State.float st 1.0 < p
let range st lo hi = lo + Random.State.int st (hi - lo + 1)
let pick st a = a.(Random.State.int st (Array.length a))

let problem_of st = if chance st 0.5 then Solver.Cycle_ratio else Solver.Cycle_mean
let objective_of st = if chance st 0.5 then Solver.Maximize else Solver.Minimize

(* worker processes of the cluster-mix front-end *)
let cluster_workers = 2

(* The hot set: 8 SPRAND graphs of 4096 nodes and 12288 arcs (~225 KB
   each), big enough that reading and parsing the file dominates a
   cache hit.  For a cluster, graphs are drawn until an equal number
   shard to each worker, so the seed does not decide how the hot half of
   the load splits. *)
let hot_files ?(workers = 1) st ~dir =
  let map = Shard_map.create ~workers in
  let per_worker = Array.make workers 0 in
  let rec draw acc =
    if List.length acc = 8 then Array.of_list (List.rev acc)
    else
      let recipe = Sprand { n = 4096; seed = Random.State.bits st } in
      let key = Fingerprint.hash (Fingerprint.of_graph (build recipe)) in
      let w = Option.get (Shard_map.assign map key) in
      if per_worker.(w) = 8 / workers then draw acc
      else begin
        per_worker.(w) <- per_worker.(w) + 1;
        let path = Filename.concat dir (Printf.sprintf "hot-%d.ocr" (List.length acc)) in
        draw ({ path; recipe } :: acc)
      end
  in
  draw []

let hot_request st files =
  {
    file = pick st files;
    problem = problem_of st;
    objective = objective_of st;
    exact_lane = false;
    exact_mode = chance st 0.10;
    verify = chance st 0.25;
  }

(* Every key the hot traffic can carry, once: after this pass the hit
   ratio of the timed requests is 1 (64 keys fit the 256-entry LRU). *)
let hot_warmup files =
  List.concat_map
    (fun file ->
      List.concat_map
        (fun problem ->
          List.concat_map
            (fun objective ->
              List.map
                (fun exact_mode ->
                  { file; problem; objective; exact_lane = false; exact_mode;
                    verify = false })
                [ false; true ])
            [ Solver.Minimize; Solver.Maximize ])
        [ Solver.Cycle_mean; Solver.Cycle_ratio ])
    (Array.to_list files)

(* One cold request: a file no other request names.  The mix covers
   the three instance families the solver meets — random SPRAND, sparse
   local circuits and many small components (the per-SCC fan-out) —
   and the rarer lanes: verify, exact answers and the Stern–Brocot
   exact lane, kept to n = 512 where it costs tens of milliseconds. *)
let cold_request st ~dir i =
  let seed = Random.State.bits st in
  let exact_lane = chance st 0.05 in
  let recipe =
    if exact_lane then Sprand { n = 512; seed }
    else
      match Random.State.int st 3 with
      | 0 -> Sprand { n = pick st [| 512; 1024; 2048 |]; seed }
      | 1 -> Circuit { registers = range st 400 3000; seed }
      | _ -> Many_scc { components = range st 16 64; size = range st 32 64; seed }
  in
  {
    file = { path = Filename.concat dir (Printf.sprintf "cold-%05d.ocr" i); recipe };
    problem = problem_of st;
    objective = objective_of st;
    exact_lane;
    exact_mode = chance st 0.10;
    verify = chance st 0.25;
  }

(* The cold front-end's warm-up: a few small solves on files outside
   the corpus, so the timed requests start on a running process. *)
let cold_warmup st ~dir =
  List.init 8 (fun i ->
      {
        file =
          {
            path = Filename.concat dir (Printf.sprintf "warm-%d.ocr" i);
            recipe = Sprand { n = 512; seed = Random.State.bits st };
          };
        problem = Solver.Cycle_mean;
        objective = Solver.Minimize;
        exact_lane = false;
        exact_mode = false;
        verify = false;
      })

(* ------------------------------------------------------------------ *)
(* stream-edit updates *)

(* The edit loop of the paper's run-many-times uses: mostly weight
   edits, some transit edits, local arc insertions and removals of
   earlier insertions (the base circuit stays strongly connected), and
   undos that return to the previous graph and so hit the session's
   answer cache. *)
let stream_steps st g ~count =
  let n = Digraph.n g and m = Digraph.m g in
  let weights = Array.init m (Digraph.weight g) in
  let next_arc = ref m in
  let added = ref [] in
  let last_edit = ref None in
  let set_weight () =
    let arc = Random.State.int st m in
    let weight = range st 1 100 in
    last_edit := Some (arc, weights.(arc));
    weights.(arc) <- weight;
    Dyn.Set_weight { arc; weight }
  in
  Array.init count (fun _ ->
      let r = Random.State.float st 1.0 in
      let undo = !last_edit in
      last_edit := None;
      if r < 0.70 then set_weight ()
      else if r < 0.80 then
        Dyn.Set_transit { arc = Random.State.int st m; transit = range st 1 10 }
      else if r < 0.88 then begin
        let src = Random.State.int st n in
        let arc = !next_arc in
        incr next_arc;
        added := arc :: !added;
        Dyn.Add_arc
          { arc; src; dst = (src + range st 1 8) mod n;
            weight = range st 1 100; transit = 1 }
      end
      else if r < 0.95 then
        match !added with
        | [] -> set_weight ()
        | live ->
          let arc = List.nth live (Random.State.int st (List.length live)) in
          added := List.filter (( <> ) arc) live;
          Dyn.Remove_arc { arc }
      else
        match undo with
        | Some (arc, weight) ->
          weights.(arc) <- weight;
          Dyn.Set_weight { arc; weight }
        | None -> set_weight ())

let query_line = Dyn_protocol.render_op (Dyn_protocol.Query { q_eps = None; q_exact = false })

(* ------------------------------------------------------------------ *)
(* the inputs of one run *)

(* Sequence lengths per second of run: enough that today's code does
   not reach the end within --seconds.  A faster program may; its timed
   pass then ends with the sequence, and the rates stay per second. *)
let hot_per_s = 400
let cold_per_s = 320
let steps_per_s = 2000
let cluster_per_s = 450

type serve_inputs = { warmup : request list; timed : request array }

type stream_inputs = {
  circuit : file;
  graph : Digraph.t;
  steps : Dyn.update array;
}

type t = Serve of serve_inputs | Stream of stream_inputs

let write_all files =
  let files = Array.of_list files in
  ignore (par_init (Array.length files) (fun i -> ignore (write_file files.(i))))

let generate w ~seed ~seconds ~dir =
  let st = Random.State.make [| seed; Hashtbl.hash (workload_name w) |] in
  let cold_corpus count = Array.init count (cold_request st ~dir) in
  let files reqs = List.map (fun r -> r.file) reqs in
  match w with
  | Serve_hot ->
    let hot = hot_files st ~dir in
    write_all (Array.to_list hot);
    Serve
      { warmup = hot_warmup hot;
        timed = Array.init (seconds * hot_per_s) (fun _ -> hot_request st hot) }
  | Serve_cold ->
    let warmup = cold_warmup st ~dir in
    let timed = cold_corpus (seconds * cold_per_s) in
    write_all (files (warmup @ Array.to_list timed));
    Serve { warmup; timed }
  | Cluster_mix ->
    (* half the traffic like serve-hot, half like serve-cold *)
    let hot = hot_files ~workers:cluster_workers st ~dir in
    let cold = cold_corpus (seconds * cluster_per_s / 2) in
    let used = ref 0 in
    let timed =
      Array.init (seconds * cluster_per_s) (fun _ ->
          if !used < Array.length cold && chance st 0.5 then begin
            incr used;
            cold.(!used - 1)
          end
          else hot_request st hot)
    in
    write_all (Array.to_list hot @ files (Array.to_list (Array.sub cold 0 !used)));
    Serve { warmup = hot_warmup hot; timed }
  | Stream_edit ->
    let circuit =
      {
        path = Filename.concat dir "circuit.ocr";
        recipe = Circuit { registers = 4096; seed = Random.State.bits st };
      }
    in
    let graph = write_file circuit in
    Stream { circuit; graph; steps = stream_steps st graph ~count:(seconds * steps_per_s) }

(* ------------------------------------------------------------------ *)
(* the oracle *)

type oracle = {
  refs : (string * Solver.problem * Solver.objective, Solver.report) Hashtbl.t;
  certify_ms : Quant.samples;  (** Verify.certify_report, per reference *)
  rational_us : Quant.samples;  (** Verify.rational_certificate *)
  mutable busy_s : float;  (** time spent computing references *)
}

let oracle () =
  { refs = Hashtbl.create 256; certify_ms = Quant.samples ();
    rational_us = Quant.samples (); busy_s = 0.0 }

let key r = (r.file.path, r.problem, r.objective)

(* A reference answer: Howard in-process on the regenerated graph,
   checked independently by exact LP duality and by the rational
   certificate of its witness, so a wrong reference cannot vouch for a
   wrong reply.  Returns the report and the two check times. *)
let solve_reference r =
  let g = build r.file.recipe in
  let rep =
    match
      Solver.solve ~objective:r.objective ~problem:r.problem
        ~algorithm:Registry.Howard g
    with
    | Some rep -> rep
    | None -> failwith ("reference: acyclic input " ^ r.file.path)
  in
  let t1 = Obs.now_ns () in
  (match Verify.certify_report ~objective:r.objective ~problem:r.problem g rep with
  | Ok () -> ()
  | Error e ->
    failwith (Printf.sprintf "reference for %s fails its certificate: %s" r.file.path e));
  let t2 = Obs.now_ns () in
  (match
     Verify.rational_certificate ~problem:r.problem g rep.Solver.lambda rep.Solver.cycle
   with
  | Ok cert when Ratio.equal cert rep.Solver.lambda -> ()
  | Ok _ | Error _ -> failwith ("reference: no rational certificate for " ^ r.file.path));
  let t3 = Obs.now_ns () in
  (rep, float_of_int (t2 - t1) /. 1e6, float_of_int (t3 - t2) /. 1e3)

(* Solves the references the requests still lack, on two domains. *)
let prepare o reqs =
  let t0 = Obs.now_ns () in
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun r -> if not (Hashtbl.mem o.refs (key r)) then Hashtbl.replace fresh (key r) r)
    reqs;
  let todo = Array.of_seq (Hashtbl.to_seq_values fresh) in
  let solved = par_init (Array.length todo) (fun i -> solve_reference todo.(i)) in
  Array.iteri
    (fun i (rep, certify_ms, rational_us) ->
      Hashtbl.replace o.refs (key todo.(i)) rep;
      Quant.add o.certify_ms certify_ms;
      Quant.add o.rational_us rational_us)
    solved;
  o.busy_s <- o.busy_s +. (float_of_int (Obs.now_ns () - t0) /. 1e9)

let reference o r =
  if not (Hashtbl.mem o.refs (key r)) then prepare o [ r ];
  Hashtbl.find o.refs (key r)

(* [key=value] tokens of a serve reply; only error replies quote values
   with spaces, and those fail the status check first. *)
let fields reply =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    (String.split_on_char ' ' reply)

(* One serve (or cluster) reply against the reference. *)
let check o r ~id reply =
  let f = fields reply in
  let lambda = (reference o r).Solver.lambda in
  let expect k v =
    match List.assoc_opt k f with
    | Some v' when v' = v -> Ok ()
    | got ->
      Error
        (Printf.sprintf "%s: expected %s=%s, got %s in reply %S" r.file.path k v
           (Option.value got ~default:"nothing") reply)
  in
  let ( let* ) = Result.bind in
  let* () = expect "req" (string_of_int id) in
  let* () = expect "file" r.file.path in
  let* () = expect "status" "ok" in
  let* () = expect "lambda" (Ratio.to_string lambda) in
  let* () =
    if r.exact_mode then
      let* () = expect "lambda_num" (string_of_int (Ratio.num lambda)) in
      expect "lambda_den" (string_of_int (Ratio.den lambda))
    else Ok ()
  in
  if r.verify then expect "certificate" "ok" else Ok ()

(* The stream oracle: replays the client's own edit log onto a plain
   arc list and cold-solves the materialized graph at each checked
   step.  [checks] lists (step index, λ the session answered) in step
   order, -1 standing for the graph before the first step; the result
   lists the mismatches. *)
let check_stream s checks =
  let g = s.graph in
  let m0 = Digraph.m g in
  let cap = m0 + Array.length s.steps in
  let src = Array.make cap 0 and dst = Array.make cap 0 in
  let w = Array.make cap 0 and tr = Array.make cap 1 in
  let alive = Array.make cap false in
  for a = 0 to m0 - 1 do
    src.(a) <- Digraph.src g a;
    dst.(a) <- Digraph.dst g a;
    w.(a) <- Digraph.weight g a;
    tr.(a) <- Digraph.transit g a;
    alive.(a) <- true
  done;
  let arcs = ref m0 in
  let apply = function
    | Dyn.Set_weight { arc; weight } -> w.(arc) <- weight
    | Dyn.Set_transit { arc; transit } -> tr.(arc) <- transit
    | Dyn.Add_arc { arc; src = u; dst = v; weight; transit } ->
      src.(arc) <- u;
      dst.(arc) <- v;
      w.(arc) <- weight;
      tr.(arc) <- transit;
      alive.(arc) <- true;
      arcs := max !arcs (arc + 1)
    | Dyn.Remove_arc { arc } -> alive.(arc) <- false
  in
  let materialize () =
    let b = Digraph.create_builder ~expected_arcs:!arcs (Digraph.n g) in
    for a = 0 to !arcs - 1 do
      if alive.(a) then
        ignore
          (Digraph.add_arc b ~src:src.(a) ~dst:dst.(a) ~weight:w.(a)
             ~transit:tr.(a) ())
    done;
    Digraph.build b
  in
  let step = ref 0 in
  List.filter_map
    (fun (k, answered) ->
      while !step <= k do
        apply s.steps.(!step);
        incr step
      done;
      match
        Solver.solve ~objective:Solver.Maximize ~problem:Solver.Cycle_mean
          ~algorithm:Registry.Howard (materialize ())
      with
      | Some rep when Ratio.to_string rep.Solver.lambda = answered -> None
      | Some rep ->
        Some
          ( k,
            Printf.sprintf "step %d: session answered %s, a cold solve gives %s" k
              answered (Ratio.to_string rep.Solver.lambda) )
      | None -> Some (k, Printf.sprintf "step %d: a cold solve finds no cycle" k))
    checks
