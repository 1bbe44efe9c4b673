(* Engine-side driver for dynamic sessions: one Dyn.t plus the engine's
   LRU result cache and telemetry, speaking the NDJSON protocol of
   Dyn_protocol line by line.  The cache is keyed by the session's
   per-epoch structural fingerprint, so a stream that returns to an
   earlier graph (undo patterns, A/B probing) answers without
   re-solving; witnesses are stored as graph-arc ids — stable under
   fingerprint equality — and mapped back to current session ids on a
   hit. *)

type cached = {
  c_lambda : Ratio.t;
  c_cycle : int list; (* graph-arc ids of the fingerprinted graph *)
  c_components : int;
}

let sp_query = Obs.intern "dyn.query"

type t = {
  session : Dyn.t;
  cache : (Fingerprint.t, cached option) Lru.t;
      (* [None] caches "acyclic" *)
  tel : Telemetry.t;
  journal : (string -> unit) option;
}

let create ?(cache_size = 256) ?journal session =
  { session; cache = Lru.create ~capacity:cache_size; tel = Telemetry.create ();
    journal }

let session t = t.session
let telemetry t = t.tel

let float_of_ratio r = Ratio.to_float r

let ok_fields t rest =
  ("ok", "true") :: ("epoch", string_of_int (Dyn.epoch t.session)) :: rest

let answer_line t ~cached ~resolved ?(exact = []) = function
  | None -> Njson.obj (ok_fields t [ ("acyclic", "true") ])
  | Some (lambda, cycle, components) ->
    Njson.obj
      (ok_fields t
         (("lambda", Njson.escape (Ratio.to_string lambda))
          :: ("float", Printf.sprintf "%.6f" (float_of_ratio lambda))
          :: exact
         @ [
             ("cycle", Njson.int_array cycle);
             ("components", string_of_int components);
             ("resolved", string_of_int resolved);
             ("cached", string_of_bool cached);
           ]))

(* mode=exact: recompute λ from the witness cycle's integer sums over
   the session's *current* weights — never the (possibly cached) float
   iterate — and cross-check before answering.  A disagreement means a
   stale or corrupt answer and is rejected rather than certified;
   Invalid_argument rides the existing rejection path in [handle], so
   the stream survives. *)
let exact_fields t lambda cycle =
  let w =
    List.fold_left (fun s a -> s + Dyn.arc_weight t.session a) 0 cycle
  in
  let d =
    match Dyn.problem t.session with
    | Solver.Cycle_mean -> List.length cycle
    | Solver.Cycle_ratio ->
      List.fold_left (fun s a -> s + Dyn.arc_transit t.session a) 0 cycle
  in
  if d <= 0 then
    invalid_arg "exact certificate: witness cycle has non-positive denominator";
  let cert = Ratio.make w d in
  if not (Ratio.equal cert lambda) then
    invalid_arg
      (Printf.sprintf
         "exact certificate: cycle sums give %s, session answered %s"
         (Ratio.to_string cert) (Ratio.to_string lambda));
  Telemetry.incr t.tel Telemetry.exact;
  [
    ("lambda_num", string_of_int (Ratio.num cert));
    ("lambda_den", string_of_int (Ratio.den cert));
  ]

(* "ok", then a curated list of counters under their table keys *)
let counter_fields t rows =
  ("ok", "true")
  :: List.map
       (fun r -> (r.Telemetry.key, string_of_int (Telemetry.value t.tel r)))
       rows

let telemetry_line t =
  Njson.obj
    (counter_fields t
       Telemetry.
         [ requests; solved; approx; exact; acyclic; rejected; cache_hits;
           cache_misses ]
    @ [ ("cache_entries", string_of_int (Lru.length t.cache)) ])

(* The telemetry table's rows (the latency histogram is recorded on
   every query — the tracing switch gates spans, not metrics), then the
   cache size. *)
let metrics_snapshot t =
  let m = Telemetry.snapshot t.tel in
  Metrics.set (Metrics.gauge m "ocr_cache_entries") (float_of_int (Lru.length t.cache));
  m

(* NDJSON metrics snapshot for the stream protocol: counters plus a
   latency digest.  Quantiles are log2-bucket upper bounds, so the
   numbers are coarse but stable. *)
let metrics_line t =
  let h = Telemetry.histogram t.tel Telemetry.latency in
  Njson.obj
    (counter_fields t Telemetry.[ requests; cache_hits; cache_misses ]
    @ [
        ("latency_count", string_of_int (Metrics.hist_count h));
        ("latency_mean_ms", Printf.sprintf "%.3f" (Metrics.hist_mean h));
        ("latency_p50_ms", Printf.sprintf "%g" (Metrics.quantile h 0.5));
        ("latency_p99_ms", Printf.sprintf "%g" (Metrics.quantile h 0.99));
        ("latency_max_ms", Printf.sprintf "%.3f" (Metrics.hist_max h));
      ])

let log_journal t op =
  match t.journal with
  | Some log -> log (Dyn_protocol.render_op op)
  | None -> ()

let do_query_inner t ~exact =
  Telemetry.incr t.tel Telemetry.requests;
  let fp = Dyn.fingerprint t.session in
  match Lru.find t.cache fp with
  | Some entry ->
    Telemetry.incr t.tel Telemetry.cache_hits;
    (match entry with
    | None ->
      Telemetry.incr t.tel Telemetry.acyclic;
      answer_line t ~cached:true ~resolved:0 None
    | Some c ->
      Telemetry.incr t.tel Telemetry.solved;
      let cycle = List.map (Dyn.of_graph_arc t.session) c.c_cycle in
      let ex = if exact then exact_fields t c.c_lambda cycle else [] in
      answer_line t ~cached:true ~resolved:0 ~exact:ex
        (Some (c.c_lambda, cycle, c.c_components)))
  | None -> (
    Telemetry.incr t.tel Telemetry.cache_misses;
    match Dyn.query t.session with
    | None ->
      Telemetry.incr t.tel Telemetry.acyclic;
      Lru.add t.cache fp None;
      answer_line t ~cached:false ~resolved:0 None
    | Some r ->
      Telemetry.incr t.tel Telemetry.solved;
      Telemetry.record_ops t.tel r.Dyn.stats;
      Lru.add t.cache fp
        (Some
           {
             c_lambda = r.Dyn.lambda;
             c_cycle = List.map (Dyn.to_graph_arc t.session) r.Dyn.cycle;
             c_components = r.Dyn.components;
           });
      let ex = if exact then exact_fields t r.Dyn.lambda r.Dyn.cycle else [] in
      answer_line t ~cached:false ~resolved:r.Dyn.resolved ~exact:ex
        (Some (r.Dyn.lambda, r.Dyn.cycle, r.Dyn.components)))

(* Approximate query: a certified interval over the session's current
   graph, answered by the approx lane rather than the incremental exact
   core.  Deliberately uncached — the LRU holds exact answers keyed by
   fingerprint, and an eps-wide interval must never shadow them (nor
   vice versa: a later exact query still re-solves). *)
let do_query_approx t ~eps =
  Telemetry.incr t.tel Telemetry.requests;
  Telemetry.incr t.tel Telemetry.cache_misses;
  let g = Dyn.graph t.session in
  let stats = Stats.create () in
  match
    Approx.solve ~stats ~problem:(Dyn.problem t.session)
      ~objective:(Dyn.objective t.session) ~eps g
  with
  | None ->
    Telemetry.incr t.tel Telemetry.acyclic;
    Njson.obj (ok_fields t [ ("acyclic", "true") ])
  | Some (c : Approx.certificate) ->
    Telemetry.incr t.tel Telemetry.approx;
    Telemetry.add t.tel Telemetry.approx_iterations c.Approx.rounds;
    Telemetry.record_ops t.tel stats;
    let cycle = List.map (Dyn.of_graph_arc t.session) c.Approx.witness in
    Njson.obj
      (ok_fields t
         [
           ("lambda_lo", Njson.escape (Ratio.to_string c.Approx.lo));
           ("lambda_hi", Njson.escape (Ratio.to_string c.Approx.hi));
           ("lo_float", Printf.sprintf "%.6f" (float_of_ratio c.Approx.lo));
           ("hi_float", Printf.sprintf "%.6f" (float_of_ratio c.Approx.hi));
           ("eps", Njson.float_lit c.Approx.eps);
           ("certified", string_of_bool c.Approx.converged);
           ("cycle", Njson.int_array cycle);
           ("components", string_of_int c.Approx.components);
           ("cached", "false");
         ])

(* Wraps the query in its span and latency observation; a rejected
   query (Invalid_argument propagating to [handle]) closes the span on
   the way out so the trace stays balanced. *)
let do_query ?eps ?(exact = false) t =
  if !Obs.enabled_flag then Trace.begin_span sp_query;
  let t0 = Obs.now_ns () in
  let finish () =
    Telemetry.observe t.tel Telemetry.latency
      (float_of_int (Obs.now_ns () - t0) /. 1e6);
    if !Obs.enabled_flag then Trace.end_span sp_query
  in
  let run () =
    match eps with
    | None -> do_query_inner t ~exact
    | Some e -> do_query_approx t ~eps:e
  in
  match run () with
  | reply ->
    finish ();
    reply
  | exception e ->
    finish ();
    raise e

(* One request line -> one response line (or Quit).  Every failure —
   unparsable line, unknown op, bad arc id, ill-posed instance — turns
   into a structured error line and the stream continues; the session
   state is unchanged by failed requests. *)
let handle t line =
  let reject msg =
    Telemetry.incr t.tel Telemetry.rejected;
    `Reply (Dyn_protocol.error_line msg)
  in
  match Dyn_protocol.parse line with
  | Error msg -> reject msg
  | Ok op -> (
    match op with
    | Dyn_protocol.Quit -> `Quit
    | Dyn_protocol.Epoch -> `Reply (Njson.obj (ok_fields t []))
    | Dyn_protocol.Fingerprint_op ->
      `Reply
        (Njson.obj
           (ok_fields t
              [ ("fingerprint",
                 Njson.escape (Fingerprint.to_hex (Dyn.fingerprint t.session)))
              ]))
    | Dyn_protocol.Telemetry_op -> `Reply (telemetry_line t)
    | Dyn_protocol.Metrics_op -> `Reply (metrics_line t)
    | Dyn_protocol.Query { q_eps; q_exact } -> (
      match do_query ?eps:q_eps ~exact:q_exact t with
      | reply ->
        log_journal t op;
        `Reply reply
      | exception Invalid_argument msg -> reject msg)
    | Dyn_protocol.Update u -> (
      match u with
      | Dyn.Add_arc { arc = _; src; dst; weight; transit } -> (
        match Dyn.add_arc t.session ~src ~dst ~weight ~transit with
        | id ->
          log_journal t
            (Dyn_protocol.Update (Dyn.Add_arc { arc = id; src; dst; weight; transit }));
          `Reply (Njson.obj (ok_fields t [ ("arc", string_of_int id) ]))
        | exception Invalid_argument msg -> reject msg)
      | u -> (
        match Dyn.apply t.session u with
        | () ->
          log_journal t (Dyn_protocol.Update u);
          `Reply (Njson.obj (ok_fields t []))
        | exception Invalid_argument msg -> reject msg)))
