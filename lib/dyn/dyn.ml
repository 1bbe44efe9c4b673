type update =
  | Set_weight of { arc : int; weight : int }
  | Set_transit of { arc : int; transit : int }
  | Add_arc of { arc : int; src : int; dst : int; weight : int; transit : int }
  | Remove_arc of { arc : int }

type report = {
  epoch : int;
  lambda : Ratio.t;
  cycle : int list;
  components : int;
  resolved : int;
  stats : Stats.t;
}

(* One cyclic SCC of the current materialization.  [p_sub] holds
   min-form weights (negated for Maximize sessions) and is mutated in
   place on label updates, so a clean component's cached [p_result]
   always describes its current labels.  A dirty component's
   [p_result] is stale: only its λ is read, as the re-solve's hint. *)
type part = {
  p_nodes : int array; (* session node ids, increasing *)
  p_arcs : int array;  (* session arc ids, in sub arc order *)
  p_sub : Digraph.t;
  mutable p_dirty : bool;
  mutable p_result : (Ratio.t * int list) option;
      (* min-form λ, witness session arc ids *)
}

type t = {
  nn : int;
  prob : Solver.problem;
  obj : Solver.objective;
  mutable pool : Executor.t option;
  owns_pool : bool;
  mutable closed : bool;
  (* session arc store: ids are stable, removed ids stay dead *)
  srcs : int Vec.t;
  dsts : int Vec.t;
  weights : int Vec.t;  (* user-form weights *)
  transits : int Vec.t;
  alive : bool Vec.t;
  mutable live : int;
  mutable ep : int;
  (* preflight bookkeeping, maintained incrementally *)
  mutable total_tt : int;     (* sum of live transits *)
  mutable wabs : int;         (* max |weight| over live arcs ... *)
  mutable wabs_stale : bool;  (* ... unless stale (max may have left) *)
  mutable ratio_ok : bool option; (* cached well-posedness verdict *)
  (* materialization: mat (min-form weights) + id maps + partition.
     [struct_valid] covers all of them; label updates keep them in sync
     in place, structural updates invalidate and [refresh] rebuilds. *)
  mutable struct_valid : bool;
  mutable mat : Digraph.t;
  mutable mat_of_session : int array; (* session arc -> mat arc | -1 *)
  mutable session_of_mat : int array;
  mutable parts : part array;         (* component (rev. topo) order *)
  mutable comp_of_node : int array;   (* node -> part index | -1 *)
  mutable sub_idx : int array;        (* intra-part session arc -> sub arc *)
  pending_dirty : int Vec.t; (* label edits made while struct invalid *)
  (* fingerprint lane sums over the live arcs at their materialized
     ids, with user-form weights; valid with the materialization *)
  mutable fp_sum : Fingerprint.sum;
  (* per-epoch answer cache *)
  mutable last_report : (int * report option) option;
}

let sign t = match t.obj with Solver.Minimize -> 1 | Solver.Maximize -> -1

let create ?(problem = Solver.Cycle_mean) ?(objective = Solver.Minimize)
    ?(jobs = 1) ?pool g =
  if jobs < 1 then invalid_arg "Dyn.create: jobs must be >= 1";
  let pool, owns_pool =
    match pool with
    | Some p -> (Some p, false)
    | None -> if jobs > 1 then (Some (Executor.create ~jobs), true) else (None, false)
  in
  let m = Digraph.m g in
  let srcs = Vec.create () and dsts = Vec.create () in
  let weights = Vec.create () and transits = Vec.create () in
  let alive = Vec.create () in
  let total_tt = ref 0 and wabs = ref 0 in
  for a = 0 to m - 1 do
    Vec.push srcs (Digraph.src g a);
    Vec.push dsts (Digraph.dst g a);
    Vec.push weights (Digraph.weight g a);
    Vec.push transits (Digraph.transit g a);
    Vec.push alive true;
    total_tt := !total_tt + Digraph.transit g a;
    if abs (Digraph.weight g a) > !wabs then wabs := abs (Digraph.weight g a)
  done;
  {
    nn = Digraph.n g;
    prob = problem;
    obj = objective;
    pool;
    owns_pool;
    closed = false;
    srcs;
    dsts;
    weights;
    transits;
    alive;
    live = m;
    ep = 0;
    total_tt = !total_tt;
    wabs = !wabs;
    wabs_stale = false;
    ratio_ok = None;
    struct_valid = false;
    mat = g;
    mat_of_session = [||];
    session_of_mat = [||];
    parts = [||];
    comp_of_node = Array.make (Digraph.n g) (-1);
    sub_idx = [||];
    pending_dirty = Vec.create ();
    fp_sum = Fingerprint.zero ();
    last_report = None;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.owns_pool then begin
      (match t.pool with Some p -> Executor.shutdown p | None -> ());
      t.pool <- None (* later queries fall back to the serial path *)
    end
  end

let n t = t.nn
let live_arcs t = t.live
let problem t = t.prob
let objective t = t.obj
let epoch t = t.ep

let arc_count t = Vec.length t.srcs

let check_arc name t a =
  if a < 0 || a >= arc_count t || not (Vec.get t.alive a) then
    invalid_arg (Printf.sprintf "Dyn.%s: no live arc %d" name a)

let arc_src t a = check_arc "arc_src" t a; Vec.get t.srcs a
let arc_dst t a = check_arc "arc_dst" t a; Vec.get t.dsts a
let arc_weight t a = check_arc "arc_weight" t a; Vec.get t.weights a
let arc_transit t a = check_arc "arc_transit" t a; Vec.get t.transits a
let arc_alive t a = a >= 0 && a < arc_count t && Vec.get t.alive a

(* ------------------------------------------------------------------ *)
(* Materialization and lazy re-partition                               *)
(* ------------------------------------------------------------------ *)

let rebuild_mat t =
  let count = arc_count t in
  let b = Digraph.create_builder ~expected_arcs:t.live t.nn in
  let mos = Array.make (max count 1) (-1) in
  let som = Array.make (max t.live 1) (-1) in
  let sg = sign t in
  let sum = Fingerprint.zero () in
  for a = 0 to count - 1 do
    if Vec.get t.alive a then begin
      let src = Vec.get t.srcs a and dst = Vec.get t.dsts a in
      let weight = Vec.get t.weights a and transit = Vec.get t.transits a in
      let id = Digraph.add_arc b ~src ~dst ~weight:(sg * weight) ~transit () in
      Fingerprint.add sum ~arc:id ~src ~dst ~weight ~transit;
      mos.(a) <- id;
      som.(id) <- a
    end
  done;
  t.mat <- Digraph.build b;
  t.mat_of_session <- mos;
  t.session_of_mat <- som;
  t.fp_sum <- sum

(* Full lazy re-partition after structural updates.  Components whose
   node set and (session-id) arc set are unchanged inherit their cached
   optimum and dirtiness — the incremental maintenance promise: an
   insertion or deletion only costs re-solves in the components it
   actually touched (merged, split, or entered).  A touched component
   is dirty and carries the old result of the component its first node
   was in, so its re-solve starts from that λ: any λ is a sound hint,
   and after a small edit it is often still the optimum. *)
let rebuild_parts t =
  let old_parts = t.parts and old_comp = t.comp_of_node in
  rebuild_mat t;
  let scc = Scc.compute t.mat in
  let subs = Scc.partition t.mat scc in
  Array.fill t.comp_of_node 0 t.nn (-1);
  let count = arc_count t in
  if Array.length t.sub_idx < count then t.sub_idx <- Array.make count (-1);
  let parts =
    Array.mapi
      (fun ci (sp : Scc.subproblem) ->
        let p_nodes = sp.Scc.node_of_sub in
        let p_arcs =
          Array.map (fun ma -> t.session_of_mat.(ma)) sp.Scc.arc_of_sub
        in
        Array.iter (fun u -> t.comp_of_node.(u) <- ci) p_nodes;
        Array.iteri (fun i a -> t.sub_idx.(a) <- i) p_arcs;
        (* carry-over: same nodes + same session arcs = same component *)
        let old =
          let rep = p_nodes.(0) in
          let oc = if Array.length old_comp = 0 then -1 else old_comp.(rep) in
          if oc >= 0 && oc < Array.length old_parts then Some old_parts.(oc)
          else None
        in
        match old with
        | Some op when op.p_nodes = p_nodes && op.p_arcs = p_arcs ->
          { p_nodes; p_arcs; p_sub = sp.Scc.sub; p_dirty = op.p_dirty;
            p_result = op.p_result }
        | _ ->
          { p_nodes; p_arcs; p_sub = sp.Scc.sub; p_dirty = true;
            p_result = Option.bind old (fun op -> op.p_result) })
      subs
  in
  t.parts <- parts;
  (* label edits recorded while the partition was invalid dirty their
     (new) containing component now *)
  Vec.iter
    (fun a ->
      if arc_alive t a then begin
        let cu = t.comp_of_node.(Vec.get t.srcs a) in
        if cu >= 0 && cu = t.comp_of_node.(Vec.get t.dsts a) then
          parts.(cu).p_dirty <- true
      end)
    t.pending_dirty;
  Vec.clear t.pending_dirty;
  t.struct_valid <- true

let refresh t = if not t.struct_valid then rebuild_parts t

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)
(* ------------------------------------------------------------------ *)

let bump t = t.ep <- t.ep + 1

(* Applies [Fingerprint.add] or [sub] to live arc [a]'s term at its
   materialized id.  While the materialization is invalid there is no
   sum to keep: [rebuild_mat] recomputes it. *)
let fp_term t a f =
  if t.struct_valid then
    f t.fp_sum ~arc:t.mat_of_session.(a) ~src:(Vec.get t.srcs a)
      ~dst:(Vec.get t.dsts a) ~weight:(Vec.get t.weights a)
      ~transit:(Vec.get t.transits a)

(* Dirty the cyclic component containing live arc [a], updating the
   materialized copies of its label in place.  O(1).  When one
   component covers every node, Scc.partition hands back [t.mat]
   itself as that part's [p_sub] with identity maps, so
   [sub_idx.(a) = mat_of_session.(a)] and the second pair of writes
   lands on the same arrays, at the same index, with the same value:
   redundant, never inconsistent. *)
let touch_label t a ~dirties =
  if t.struct_valid then begin
    let ma = t.mat_of_session.(a) in
    let sg = sign t in
    Digraph.Unsafe.set_weight t.mat ma (sg * Vec.get t.weights a);
    Digraph.Unsafe.set_transit t.mat ma (Vec.get t.transits a);
    let cu = t.comp_of_node.(Vec.get t.srcs a) in
    if cu >= 0 && cu = t.comp_of_node.(Vec.get t.dsts a) then begin
      let p = t.parts.(cu) in
      let i = t.sub_idx.(a) in
      Digraph.Unsafe.set_weight p.p_sub i (sg * Vec.get t.weights a);
      Digraph.Unsafe.set_transit p.p_sub i (Vec.get t.transits a);
      if dirties then p.p_dirty <- true
    end
  end
  else if dirties then Vec.push t.pending_dirty a

let set_weight t a w =
  check_arc "set_weight" t a;
  let old = Vec.get t.weights a in
  fp_term t a Fingerprint.sub;
  Vec.set t.weights a w;
  fp_term t a Fingerprint.add;
  bump t;
  if abs w >= t.wabs then begin
    t.wabs <- abs w;
    t.wabs_stale <- false
  end
  else if abs old >= t.wabs then t.wabs_stale <- true;
  touch_label t a ~dirties:true

let set_transit t a tt =
  check_arc "set_transit" t a;
  if tt < 0 then invalid_arg "Dyn.set_transit: negative transit time";
  let old = Vec.get t.transits a in
  fp_term t a Fingerprint.sub;
  Vec.set t.transits a tt;
  fp_term t a Fingerprint.add;
  bump t;
  t.total_tt <- t.total_tt - old + tt;
  if (old = 0) <> (tt = 0) then t.ratio_ok <- None;
  (* transit times only affect answers for ratio sessions *)
  touch_label t a ~dirties:(t.prob = Solver.Cycle_ratio)

let add_arc t ~src ~dst ~weight ~transit =
  if src < 0 || src >= t.nn || dst < 0 || dst >= t.nn then
    invalid_arg "Dyn.add_arc: endpoint out of range";
  if transit < 0 then invalid_arg "Dyn.add_arc: negative transit time";
  let id = arc_count t in
  Vec.push t.srcs src;
  Vec.push t.dsts dst;
  Vec.push t.weights weight;
  Vec.push t.transits transit;
  Vec.push t.alive true;
  t.live <- t.live + 1;
  t.total_tt <- t.total_tt + transit;
  (* [wabs] is an upper bound when stale; a new arc at or above it
     dominates every live weight and makes the bound exact again *)
  if abs weight >= t.wabs then begin
    t.wabs <- abs weight;
    t.wabs_stale <- false
  end;
  t.ratio_ok <- None;
  t.struct_valid <- false;
  bump t;
  id

let remove_arc t a =
  check_arc "remove_arc" t a;
  Vec.set t.alive a false;
  t.live <- t.live - 1;
  t.total_tt <- t.total_tt - Vec.get t.transits a;
  if abs (Vec.get t.weights a) >= t.wabs then t.wabs_stale <- true;
  t.ratio_ok <- None;
  t.struct_valid <- false;
  bump t

let apply t u =
  match u with
  | Set_weight { arc; weight } -> set_weight t arc weight
  | Set_transit { arc; transit } -> set_transit t arc transit
  | Add_arc { arc; src; dst; weight; transit } ->
    let id = add_arc t ~src ~dst ~weight ~transit in
    if arc >= 0 && arc <> id then
      invalid_arg
        (Printf.sprintf
           "Dyn.apply: journal inserted arc %d but this session assigned %d"
           arc id)
  | Remove_arc { arc } -> remove_arc t arc

(* ------------------------------------------------------------------ *)
(* Preflight — Solver's checks, O(1) per query from incrementally      *)
(* maintained aggregates.                                              *)
(* ------------------------------------------------------------------ *)

let rescan_wabs t =
  let w = ref 0 in
  for a = 0 to arc_count t - 1 do
    if Vec.get t.alive a && abs (Vec.get t.weights a) > !w then
      w := abs (Vec.get t.weights a)
  done;
  t.wabs <- !w;
  t.wabs_stale <- false

let zero_transit_cycle t =
  match t.ratio_ok with
  | Some ok -> not ok
  | None ->
    let ok =
      Critical.cycle_in t.mat (fun a -> Digraph.transit t.mat a = 0) = None
    in
    t.ratio_ok <- Some ok;
    not ok

let preflight t =
  if t.wabs_stale && t.live > 0 then rescan_wabs t;
  Solver.preflight_values ~problem:t.prob ~n:t.nn ~m:t.live
    ~max_abs_weight:t.wabs ~total_transit:t.total_tt
    ~zero_transit_cycle:(fun () -> zero_transit_cycle t)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* bench/e2e's per-layer metric [Warm.locate.self_ms_per_query] reads
   the hint probe's time under this span name. *)
let sp_locate = Obs.intern "warm.locate"

(* Re-solve one dirty component.  One location pass classifies the
   stale optimum against the current labels: [Optimal] proves it is
   still λ*, [Above] hands a strictly better cycle to the exact
   finisher, and [Below] (the optimum rose) or a component with no
   stale optimum runs Newton's descent.  Every path ends in the same
   location pass at λ* as a cold solve, whose witness depends on the
   graph alone, so the answer is bit-identical to it. *)
let solve_part t (p : part) =
  let st = Stats.create () in
  let g = p.p_sub in
  let descend () = Newton.descent ~stats:st ~who:"Dyn" ~problem:t.prob g in
  let lambda, cyc =
    match p.p_result with
    | None -> descend ()
    | Some (hint, _) -> (
      let den = Critical.den t.prob g in
      let tr = !Obs.enabled_flag in
      if tr then Trace.begin_span sp_locate;
      let located = Critical.locate ~stats:st ~den g hint in
      if tr then Trace.end_span sp_locate;
      match located with
      | Critical.Optimal w -> (hint, w)
      | Critical.Above c -> Critical.improve_to_optimal ~stats:st ~den g c
      | Critical.Below -> descend ())
  in
  (lambda, List.map (fun i -> p.p_arcs.(i)) cyc, st)

let query t =
  match t.last_report with
  | Some (e, r) when e = t.ep -> r
  | _ ->
    refresh t;
    preflight t;
    let parts = t.parts in
    let k = Array.length parts in
    let dirty =
      Array.of_list
        (List.filter (fun ci -> parts.(ci).p_dirty) (List.init k Fun.id))
    in
    let resolved = Array.length dirty in
    let solved, _ =
      Fanout.run ?pool:t.pool
        ~arcs:(fun ci -> Digraph.m parts.(ci).p_sub)
        (fun ?pool:_ ci -> solve_part t parts.(ci))
        dirty
    in
    (* join: commit results in component order, on the coordinating
       thread *)
    let stats = Stats.create () in
    Array.iteri
      (fun j ci ->
        let lambda, cyc, st = Option.get solved.(j) in
        let p = parts.(ci) in
        p.p_result <- Some (lambda, cyc);
        p.p_dirty <- false;
        Stats.add stats st)
      dirty;
    let answer =
      Option.map
        (fun (lambda, cycle) ->
          let lambda =
            match t.obj with
            | Solver.Minimize -> lambda
            | Solver.Maximize -> Ratio.neg lambda
          in
          { epoch = t.ep; lambda; cycle; components = k; resolved; stats })
        (Fanout.best ~key:fst (Array.map (fun p -> p.p_result) parts))
    in
    t.last_report <- Some (t.ep, answer);
    answer

(* ------------------------------------------------------------------ *)
(* Snapshots, id mapping, fingerprints                                 *)
(* ------------------------------------------------------------------ *)

let graph t =
  let b = Digraph.create_builder ~expected_arcs:t.live t.nn in
  for a = 0 to arc_count t - 1 do
    if Vec.get t.alive a then
      ignore
        (Digraph.add_arc b ~src:(Vec.get t.srcs a) ~dst:(Vec.get t.dsts a)
           ~weight:(Vec.get t.weights a)
           ~transit:(Vec.get t.transits a) ())
  done;
  Digraph.build b

let to_graph_arc t a =
  check_arc "to_graph_arc" t a;
  refresh t;
  t.mat_of_session.(a)

let of_graph_arc t ma =
  refresh t;
  if ma < 0 || ma >= Digraph.m t.mat then
    invalid_arg "Dyn.of_graph_arc: arc out of range";
  t.session_of_mat.(ma)

(* O(1) after label edits: the sums follow every edit.  After a
   structural update it re-partitions, as the query it keys would. *)
let fingerprint t =
  refresh t;
  Fingerprint.finish t.fp_sum ~n:t.nn ~m:t.live

let replay ?problem ?objective ?jobs ?pool g updates =
  let t = create ?problem ?objective ?jobs ?pool g in
  List.iter (apply t) updates;
  t
