type cache_entry = {
  e_lambda : Ratio.t;
  e_cycle : int list;
  e_components : int;
  e_algorithm : string;
  e_cert : Ratio.t option;
      (* the mode=exact certificate; exact and float answers live under
         distinct cache keys (Request.key's kmode) *)
}

type outcome =
  | Solved of {
      lambda : Ratio.t;
      cycle : int list;
      components : int;
      algorithm : string;
      cached : bool;
      fallbacks : int;
      certified : bool;
      exact : Ratio.t option;
          (* mode=exact: the rational certificate recomputed from the
             witness cycle's integer sums (Verify.rational_certificate) *)
    }
  | Approximate of { cached : bool; impossible : Dyn_protocol.never }
  | Acyclic
  | Timeout of { partial : Ratio.t option; attempted : string list }
  | Rejected of string

type response = {
  id : int;
  path : string;
  outcome : outcome;
  wall_ms : float;
}

let sp_request = Obs.intern "engine.request"
let sp_cache_hit = Obs.intern "engine.cache_hit"
let sp_cache_miss = Obs.intern "engine.cache_miss"
let sp_load = Obs.intern "engine.load"

type t = {
  exec : Executor.t;
  cache : (Request.key, cache_entry) Lru.t;
  files : File_table.t; (* path -> fingerprint, for {!solve_path} *)
  tel : Telemetry.t; (* engine lifetime; coordinator-only access *)
  now : unit -> float;
}

let create ?(jobs = 1) ?(cache_size = 256) ?(now = Unix.gettimeofday) () =
  {
    exec = Executor.create ~jobs;
    cache = Lru.create ~capacity:cache_size;
    files = File_table.create ~capacity:cache_size;
    tel = Telemetry.create ();
    now;
  }

let jobs t = Executor.jobs t.exec
let pool t = t.exec
let resize_cache t capacity =
  Lru.resize t.cache capacity;
  File_table.resize t.files capacity

let telemetry t = t.tel

let shutdown t = Executor.shutdown t.exec

(* the telemetry table's rows, then the executor pool-health sample *)
let metrics_snapshot t =
  let m = Telemetry.snapshot t.tel in
  Executor.sample_metrics t.exec m;
  m

(* ------------------------------------------------------------------ *)
(* deadline / portfolio policy                                         *)
(* ------------------------------------------------------------------ *)

(* The Auto policy: Howard first (the study's overall winner) under an
   iteration budget generous enough that it virtually always converges
   (its average iteration count is conjectured O(lg n), see bench E7);
   on a blowout fall back to HO under a level budget, and finally to
   Karp2 — exact, Θ(n) space, bounded Θ(nm) work — with no iteration
   budget, so the portfolio always terminates with an exact optimum
   unless the request deadline fires first. *)
let auto_portfolio g =
  let n = Digraph.n g in
  [
    (Registry.Howard, Some (50 + (n / 16)));
    (Registry.Ho, Some (max 64 (n / 8)));
    (Registry.Karp2, None);
  ]

(* ------------------------------------------------------------------ *)
(* fresh solve: per-SCC fan-out, portfolio, deadline                   *)
(* ------------------------------------------------------------------ *)

(* The per-component loop is Solver.solve_partition, so engine results
   are indistinguishable from a fresh [Solver.solve ~algorithm] — a
   property the test suite checks.  The partition is computed once and
   reused by every portfolio attempt.

   [inner_pool] is the arbitration verdict from the caller: [Some p]
   lets this request parallelize internally (component fan-out, and
   Howard's chunked sweep inside a component); [None] keeps the whole
   request on the calling domain, which is what {!run_batch} picks
   when the batch-level fan-out already saturates the pool — nesting
   both levels would only queue overhead.  Purely a placement
   decision: outcomes are bit-identical either way. *)
let solve_fresh t ~inner_pool tel (req : Request.t) =
  let spec = req.Request.spec in
  let deadline_at =
    Option.map (fun ms -> t.now () +. (ms /. 1000.0)) spec.Request.deadline_ms
  in
  match Solver.preflight ~problem:spec.Request.problem req.Request.graph with
  | exception Invalid_argument msg -> Rejected msg
  | () ->
    let g_min =
      match spec.Request.objective with
      | Solver.Minimize -> req.Request.graph
      | Solver.Maximize -> Digraph.negate_weights req.Request.graph
    in
    let restore lambda =
      match spec.Request.objective with
      | Solver.Minimize -> lambda
      | Solver.Maximize -> Ratio.neg lambda
    in
    let subs = Scc.partition g_min (Scc.compute g_min) in
    let runner_of alg =
      match spec.Request.problem with
      | Solver.Cycle_mean -> Registry.minimum_cycle_mean alg
      | Solver.Cycle_ratio -> Registry.minimum_cycle_ratio alg
    in
    let attempts =
      match spec.Request.algorithm with
      | Request.Fixed a -> [ (Registry.name a, None, runner_of a) ]
      | Request.Exact ->
        let run =
          match spec.Request.problem with
          | Solver.Cycle_mean -> Stern_brocot.minimum_cycle_mean
          | Solver.Cycle_ratio -> Stern_brocot.minimum_cycle_ratio
        in
        [ ("exact", None, run) ]
      | Request.Auto ->
        List.map
          (fun (a, b) -> (Registry.name a, b, runner_of a))
          (auto_portfolio g_min)
    in
    (* every component gets its own Budget.t, so an iteration budget
       bounds each component, not the attempt; Howard ticks it on the
       coordinating domain only, never from a sweep-chunk task *)
    let budget iter_budget () =
      match (iter_budget, deadline_at) with
      | None, None -> None
      | _ ->
        Some
          (Budget.create ?max_iterations:iter_budget ~now:t.now ?deadline_at ())
    in
    let rec go attempted fallbacks = function
      | [] ->
        (* unreachable with the shipped portfolios (the terminal
           entry is unbudgeted) but a sound answer if one is built *)
        Timeout { partial = None; attempted = List.rev attempted }
      | (name, iter_budget, run) :: rest -> (
        let t0 = t.now () in
        let report, cause =
          Solver.solve_partition ?pool:inner_pool ~budget:(budget iter_budget)
            run subs
        in
        let wall_ms = (t.now () -. t0) *. 1000.0 in
        Option.iter (fun r -> Telemetry.record_ops tel r.Solver.stats) report;
        match (cause, report) with
        | None, None -> Acyclic
        | None, Some r ->
          Telemetry.record_run tel name ~wall_ms;
          Solved
            {
              lambda = restore r.Solver.lambda;
              cycle = r.Solver.cycle;
              components = r.Solver.components;
              algorithm = name;
              cached = false;
              fallbacks;
              certified = false;
              exact = None;
            }
        | Some Budget.Iterations, _ ->
          Telemetry.record_blowout tel name ~wall_ms;
          go (name :: attempted) (fallbacks + 1) rest
        | Some Budget.Deadline, partial ->
          Timeout
            {
              partial = Option.map (fun r -> restore r.Solver.lambda) partial;
              attempted = List.rev (name :: attempted);
            })
    in
    go [] 0 attempts

(* ------------------------------------------------------------------ *)
(* cache layer                                                         *)
(* ------------------------------------------------------------------ *)

let certify (req : Request.t) lambda cycle =
  Verify.certify ~objective:req.Request.spec.Request.objective
    ~problem:req.Request.spec.Request.problem req.Request.graph lambda cycle

(* The exact-answer cross-check: on a mode=exact request, recompute λ
   from the witness cycle's integer sums and attach it as the rational
   certificate.  A disagreement (or a float answer more than 1 ulp off
   the certificate) is an engine bug, answered as a rejection rather
   than a wrong certificate. *)
let finish_exact (req : Request.t) outcome =
  match outcome with
  | Solved s when req.Request.spec.Request.mode = Request.Exact_answer -> (
    match
      Verify.rational_certificate ~problem:req.Request.spec.Request.problem
        req.Request.graph s.lambda s.cycle
    with
    | Ok cert -> Solved { s with exact = Some cert }
    | Error e -> Rejected e)
  | o -> o

let verify_fresh req outcome =
  match outcome with
  | Solved s when req.Request.spec.Request.verify -> (
    match certify req s.lambda s.cycle with
    | Ok () -> Solved { s with certified = true }
    | Error e -> Rejected ("certificate FAILED: " ^ e))
  | o -> o

(* A fresh solve plus verification, run inside an executor task.
   Returns the outcome together with the telemetry shard the task
   recorded into (merged by the coordinator at the join, in request
   order).  [inner_pool] is the intra-request parallelism verdict
   passed on to {!solve_fresh}. *)
let solve_task t ~inner_pool req () =
  let tel = Telemetry.create () in
  let outcome =
    verify_fresh req (finish_exact req (solve_fresh t ~inner_pool tel req))
  in
  (outcome, tel)

(* {!solve_task} on the coordinating thread, its shard folded in *)
let solve_here t ~inner_pool req =
  let outcome, shard = solve_task t ~inner_pool req () in
  Telemetry.merge_into ~into:t.tel shard;
  outcome

let count_cached tel cached =
  if !Obs.enabled_flag then
    Trace.instant (if cached then sp_cache_hit else sp_cache_miss);
  Telemetry.incr tel
    (if cached then Telemetry.cache_hits else Telemetry.cache_misses)

let count_uncached tel row =
  Telemetry.incr tel row;
  Telemetry.incr tel Telemetry.cache_misses

(* Count one answered request into the deterministic coordinator
   counters; when tracing is on, also drop a cache hit/miss instant on
   the timeline. *)
let count_outcome tel outcome =
  Telemetry.incr tel Telemetry.requests;
  match outcome with
  | Solved s ->
    Telemetry.incr tel Telemetry.solved;
    if s.exact <> None then Telemetry.incr tel Telemetry.exact;
    count_cached tel s.cached
  | Approximate _ -> .
  | Acyclic -> count_uncached tel Telemetry.acyclic
  | Timeout _ -> count_uncached tel Telemetry.timeouts
  | Rejected _ -> count_uncached tel Telemetry.rejected

(* The cacheable image of an outcome: a fresh exact answer. *)
let entry_of_outcome = function
  | Solved s when not s.cached ->
    Some
      { e_lambda = s.lambda; e_cycle = s.cycle; e_components = s.components;
        e_algorithm = s.algorithm; e_cert = s.exact }
  | _ -> None

(* A cache entry as a cached outcome; [checked]: it was re-certified
   against the request's graph. *)
let cached_outcome ~checked e =
  Solved
    {
      lambda = e.e_lambda;
      cycle = e.e_cycle;
      components = e.e_components;
      algorithm = e.e_algorithm;
      cached = true;
      fallbacks = 0;
      certified = checked;
      exact = e.e_cert;
    }

(* Serve a request from a cache entry.  With [verify] the entry is
   re-certified against the request's actual graph — which doubles as
   a fingerprint-collision guard: a failing certificate falls through
   to a fresh solve and is counted as a collision, never served. *)
let from_cache tel (req : Request.t) entry =
  if not req.Request.spec.Request.verify then
    Some (cached_outcome ~checked:false entry)
  else
    match certify req entry.e_lambda entry.e_cycle with
    | Ok () -> Some (cached_outcome ~checked:true entry)
    | Error _ ->
      Telemetry.incr tel Telemetry.collisions;
      None

let cache_insert t key outcome =
  match entry_of_outcome outcome with
  | Some e -> Lru.add t.cache key e
  | None -> ()

(* ------------------------------------------------------------------ *)
(* single-request front door (the serve path)                          *)
(* ------------------------------------------------------------------ *)

(* The bookkeeping of every single request, however it is answered:
   the engine.request span under the propagated cluster trace id (0 =
   standalone, which records exactly the untagged span of old), the
   deterministic counters and the latency histogram, all recorded
   straight into the engine's store.  [answer] returns the outcome plus
   whatever its caller needs back. *)
let respond t ~id (spec : Request.spec) answer =
  if !Obs.enabled_flag then Trace.begin_span_id sp_request spec.Request.trace;
  let t0 = t.now () in
  let outcome, extra = answer () in
  count_outcome t.tel outcome;
  let wall_ms = (t.now () -. t0) *. 1000.0 in
  Telemetry.observe t.tel Telemetry.latency wall_ms;
  if !Obs.enabled_flag then Trace.end_span_id sp_request spec.Request.trace;
  ({ id; path = spec.Request.path; outcome; wall_ms }, extra)

(* {!solve}, also returning the request's cache key *)
let solve_keyed t (req : Request.t) =
  respond t ~id:req.Request.id req.Request.spec (fun () ->
      let key = Request.key req in
      match Option.bind (Lru.find t.cache key) (from_cache t.tel req) with
      | Some o -> (o, key)
      | None ->
        (* a lone request is the only client: intra-request parallelism
           gets the whole pool *)
        let outcome = solve_here t ~inner_pool:(Some t.exec) req in
        cache_insert t key outcome;
        (outcome, key))

let solve t req = fst (solve_keyed t req)

(* A request naming a file.  While the file's stat still matches the
   identity its fingerprint was recorded under, a verify=false request
   whose key is in the LRU is answered without opening the file.
   Everything else — misses, verify=true, a changed identity, a failed
   stat — reads the file and goes through {!solve_keyed}, so each of
   those answers comes from the bytes on disk, and a failed stat leaves
   the error message to the load. *)
let solve_path t ~id (spec : Request.spec) =
  let path = spec.Request.path in
  let st = File_table.stat path in
  let cached =
    match st with
    | Some st when not spec.Request.verify ->
      Option.bind (File_table.find t.files path st) (fun fp ->
          Lru.find t.cache (Request.key_of fp spec))
    | _ -> None
  in
  match cached with
  | Some entry ->
    let resp, () =
      respond t ~id spec (fun () -> (cached_outcome ~checked:false entry, ()))
    in
    Ok resp
  | None -> (
    let trace = spec.Request.trace in
    if !Obs.enabled_flag then Trace.begin_span_id sp_load trace;
    let loaded =
      match Graph_io.load path with
      | g -> Ok g
      | exception (Sys_error e | Failure e) -> Error e
    in
    if !Obs.enabled_flag then Trace.end_span_id sp_load trace;
    match loaded with
    | Error e -> Error e
    | Ok graph ->
      let resp, key = solve_keyed t (Request.make ~id ~graph spec) in
      Option.iter (fun st -> File_table.record t.files path st key.Request.fp) st;
      Ok resp)

(* ------------------------------------------------------------------ *)
(* batch front door                                                    *)
(* ------------------------------------------------------------------ *)

(* Requests are deduplicated by cache key before scheduling: the first
   occurrence of each key is solved (in parallel across the pool), and
   every later occurrence is served from that in-flight result.  This
   makes the hit/miss sequence — and therefore the whole output — a
   function of the request list alone, independent of --jobs, which is
   what lets the cram tests diff the jobs=1 and jobs=4 outputs. *)
let run_batch t (reqs : Request.t list) =
  let seen : (Request.key, unit) Hashtbl.t = Hashtbl.create 64 in
  (* first pass: classify every request (dup / cache hit / miss)
     WITHOUT scheduling, so the miss count is known before the first
     task is queued *)
  let classified =
    List.map
      (fun req ->
        let key = Request.key req in
        if Hashtbl.mem seen key then (req, key, `Dup)
        else
          match Lru.find t.cache key with
          | Some e -> (req, key, `Cache e)
          | None ->
            Hashtbl.replace seen key ();
            (req, key, `Miss))
      reqs
  in
  (* batch-vs-intra-solve arbitration: with at least [jobs] distinct
     misses the batch fan-out alone saturates the pool, so each task
     runs its request serially — nested per-SCC or sweep-chunk tasks
     would only contend for the same workers.  A small batch (fewer
     misses than workers) lets each request keep the pool for its own
     component fan-out and giant-SCC sweep chunking. *)
  let misses = Hashtbl.length seen in
  let inner_pool =
    if misses >= Executor.jobs t.exec then None else Some t.exec
  in
  (* second pass: schedule the first occurrence of each key *)
  let pending :
      (Request.key, (outcome * Telemetry.t) Executor.future) Hashtbl.t =
    Hashtbl.create 64
  in
  let plan =
    List.map
      (fun (req, key, kind) ->
        match kind with
        | `Miss ->
          let fut = Executor.async t.exec (solve_task t ~inner_pool req) in
          Hashtbl.replace pending key fut;
          (req, key, `First fut)
        | `Dup -> (req, key, `Dup)
        | `Cache e -> (req, key, `Cache e))
      classified
  in
  (* collect in request order; merge telemetry shards at the join *)
  let resolved : (Request.key, outcome) Hashtbl.t = Hashtbl.create 64 in
  let tel = t.tel in
  let responses =
    List.map
      (fun (req, key, kind) ->
        let t0 = t.now () in
        let outcome =
          match kind with
          | `First fut ->
            let outcome, shard = Executor.await t.exec fut in
            Telemetry.merge_into ~into:tel shard;
            cache_insert t key outcome;
            Hashtbl.replace resolved key outcome;
            outcome
          | `Dup -> (
            (* only a cacheable result is mirrored to duplicates: a
               timeout or rejection is a property of the *first*
               request (its deadline), not of the key, so later
               occurrences solve on their own terms *)
            match entry_of_outcome (Hashtbl.find resolved key) with
            | Some e -> (
              match from_cache tel req e with
              | Some o -> o
              | None ->
                (* verify-on-hit failed: impossible for a genuine
                   duplicate, but fall back to a fresh solve *)
                solve_here t ~inner_pool req)
            | None ->
              let outcome = solve_here t ~inner_pool req in
              cache_insert t key outcome;
              Hashtbl.replace resolved key outcome;
              outcome)
          | `Cache e -> (
            match from_cache tel req e with
            | Some o -> o
            | None ->
              let outcome = solve_here t ~inner_pool req in
              cache_insert t key outcome;
              outcome)
        in
        count_outcome tel outcome;
        let wall_ms = (t.now () -. t0) *. 1000.0 in
        Telemetry.observe tel Telemetry.latency wall_ms;
        {
          id = req.Request.id;
          path = req.Request.spec.Request.path;
          outcome;
          wall_ms;
        })
      plan
  in
  responses

(* ------------------------------------------------------------------ *)
(* response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let response_line ?(wall = false) r =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "req=%d file=%s" r.id r.path);
  (match r.outcome with
  | Solved s ->
    Buffer.add_string b
      (Printf.sprintf " status=ok lambda=%s float=%.6f"
         (Ratio.to_string s.lambda)
         (Ratio.to_float s.lambda));
    (match s.exact with
    | Some cert ->
      Buffer.add_string b
        (Printf.sprintf " lambda_num=%d lambda_den=%d" (Ratio.num cert)
           (Ratio.den cert))
    | None -> ());
    Buffer.add_string b
      (Printf.sprintf " alg=%s components=%d fallbacks=%d cached=%b"
         s.algorithm s.components s.fallbacks s.cached);
    if s.certified then Buffer.add_string b " certificate=ok"
  | Approximate _ -> .
  | Acyclic -> Buffer.add_string b " status=acyclic"
  | Timeout { partial; attempted } ->
    Buffer.add_string b
      (Printf.sprintf " status=timeout attempted=%s partial=%s"
         (String.concat "," attempted)
         (match partial with Some l -> Ratio.to_string l | None -> "-"))
  | Rejected msg ->
    Buffer.add_string b (Printf.sprintf " status=rejected msg=%S" msg));
  if wall then Buffer.add_string b (Printf.sprintf " ms=%.2f" r.wall_ms);
  Buffer.contents b
