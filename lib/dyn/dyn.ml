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
   [p_result] is stale: only its λ is read, as the re-solve's hint.
   A part covering every node is the materialization itself: [p_sub]
   is [mat], and its arcs are [mat]'s, so it keeps no [p_arcs] (see
   [covers] and [arc_of]). *)
type part = {
  p_nodes : int array; (* session node ids, increasing *)
  p_arcs : int array;  (* session arc ids, in sub arc order *)
  p_sub : Digraph.t;
  mutable p_dirty : bool;
  mutable p_result : (Ratio.t * int list) option;
      (* min-form λ, witness session arc ids *)
}

(* Structural updates since the materialization and the partition were
   last built.  One insertion or removal may take [refresh]'s local
   path; anything more re-partitions in full. *)
type pending =
  | Synced          (* materialization and partition are current *)
  | Added of int    (* exactly one arc inserted since *)
  | Removed of int  (* exactly one arc removed since *)
  | Stale           (* no partition yet, or several structural edits *)

type ints = Digraph.int_array1

type t = {
  nn : int;
  prob : Solver.problem;
  obj : Solver.objective;
  mutable pool : Executor.t option;
  owns_pool : bool;
  mutable closed : bool;
  (* session arc store: ids are stable, removed ids stay dead.  Valid
     below [count] and grown by doubling.  It and the id maps below
     live off the heap, so the major GC neither marks nor sweeps them
     (see [refresh]). *)
  mutable count : int;
  mutable srcs : ints;
  mutable dsts : ints;
  mutable weights : ints;  (* user-form weights *)
  mutable transits : ints;
  mutable alive : Bytes.t;  (* '\001' for a live arc *)
  mutable live : int;
  mutable ep : int;
  (* preflight bookkeeping, maintained incrementally *)
  mutable total_tt : int;     (* sum of live transits *)
  mutable wabs : int;         (* max |weight| over live arcs ... *)
  mutable wabs_stale : bool;  (* ... unless stale (max may have left) *)
  mutable ratio_ok : bool option; (* cached well-posedness verdict *)
  (* materialization: mat (min-form weights) + id maps + partition.
     [pending] covers all of them; label updates keep them in sync in
     place, structural updates leave them stale and [refresh] rebuilds.
     The id maps are reused across rebuilds, so they may be longer
     than [arc_count] and [live]. *)
  mutable pending : pending;
  mutable mat : Digraph.t;
  (* [mat]'s storage, owned by the session and refilled in place by
     every rebuild: four label buffers and the out-CSR's arc buffer of
     equal capacity, grown with an eighth of headroom, and the n + 1
     CSR starts.  [mat] is a view of their first [live] entries. *)
  mutable buf_src : ints;
  mutable buf_dst : ints;
  mutable buf_weight : ints;
  mutable buf_transit : ints;
  mutable buf_out : ints;
  buf_start : ints;
  mutable mat_of_session : ints;  (* session arc -> mat arc | -1 *)
  mutable session_of_mat : ints;
  (* [arc_count] and [live] when [refresh] last finished *)
  mutable count_synced : int;
  mutable live_synced : int;
  mutable parts : part array;         (* component (rev. topo) order *)
  mutable comp_of_node : int array;   (* node -> part index | -1 *)
  mutable sub_idx : ints;        (* intra-part session arc -> sub arc *)
  local_of_node : int array;     (* node -> its index in its part *)
  (* label edits made while the partition was stale, as
     [arc lsl 1 lor dirties] *)
  pending_labels : int Vec.t;
  mutable local_refreshes : int;
  mutable full_refreshes : int;
  (* off-heap words of this session's graphs dropped since [refresh]
     last finished a major cycle *)
  mutable dropped : int;
  (* structural refreshes since [refresh] last finished a major
     cycle *)
  mutable since_cycle : int;
  (* fingerprint lane sums over the live arcs at their materialized
     ids, with user-form weights; valid with the materialization *)
  mutable fp_sum : Fingerprint.sum;
  (* per-epoch answer cache *)
  mutable last_report : (int * report option) option;
}

let ia len : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* [a] itself when it holds at least [len] entries, else a copy at
   least twice as long, its new entries unset. *)
let grow (a : ints) len =
  let k = Bigarray.Array1.dim a in
  if k >= len then a
  else begin
    let b = ia (max len (2 * k)) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 k);
    b
  end

(* [a] itself when it holds at least [len] entries, else a fresh
   buffer with an eighth of headroom, unset: for buffers that every
   rebuild refills. *)
let reserve (a : ints) len =
  if Bigarray.Array1.dim a >= len then a else ia (len + (len / 8))

let view (a : ints) len = Bigarray.Array1.sub a 0 len

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
  let copy a =
    let b = ia m in
    Bigarray.Array1.blit (Bigarray.Array1.sub a 0 m) b;
    b
  in
  let total_tt = ref 0 and wabs = ref 0 in
  for a = 0 to m - 1 do
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
    count = m;
    srcs = copy (Digraph.Unsafe.srcs g);
    dsts = copy (Digraph.Unsafe.dsts g);
    weights = copy (Digraph.Unsafe.weights g);
    transits = copy (Digraph.Unsafe.transits g);
    alive = Bytes.make m '\001';
    live = m;
    ep = 0;
    total_tt = !total_tt;
    wabs = !wabs;
    wabs_stale = false;
    ratio_ok = None;
    pending = Stale;
    mat = g;
    buf_src = ia 0;
    buf_dst = ia 0;
    buf_weight = ia 0;
    buf_transit = ia 0;
    buf_out = ia 0;
    buf_start = ia (Digraph.n g + 1);
    mat_of_session = ia 0;
    session_of_mat = ia 0;
    count_synced = 0;
    live_synced = -1;
    parts = [||];
    comp_of_node = Array.make (Digraph.n g) (-1);
    sub_idx = ia 0;
    local_of_node = Array.make (Digraph.n g) 0;
    pending_labels = Vec.create ();
    local_refreshes = 0;
    full_refreshes = 0;
    dropped = 0;
    since_cycle = 0;
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

let arc_count t = t.count

let check_arc name t a =
  if a < 0 || a >= arc_count t || Bytes.get t.alive a = '\000' then
    invalid_arg (Printf.sprintf "Dyn.%s: no live arc %d" name a)

let arc_src t a = check_arc "arc_src" t a; t.srcs.{a}
let arc_dst t a = check_arc "arc_dst" t a; t.dsts.{a}
let arc_weight t a = check_arc "arc_weight" t a; t.weights.{a}
let arc_transit t a = check_arc "arc_transit" t a; t.transits.{a}
let arc_alive t a = a >= 0 && a < arc_count t && Bytes.get t.alive a <> '\000'

(* ------------------------------------------------------------------ *)
(* Materialization and lazy re-partition                               *)
(* ------------------------------------------------------------------ *)

(* The one materializer: the live session arcs, in session-id order,
   written to the first [live] entries of the four label arrays,
   weights multiplied by [sg].  With [index] the same loop also
   refills the id maps and returns the fingerprint lane sums
   (user-form weights, keyed by materialized id). *)
let materialize t ~sg ~index ~(arc_src : ints) ~(arc_dst : ints)
    ~(arc_weight : ints) ~(arc_transit : ints) =
  let count = arc_count t in
  let sum = Fingerprint.zero () in
  let mos = t.mat_of_session and som = t.session_of_mat in
  let alive = t.alive and srcs = t.srcs and dsts = t.dsts in
  let weights = t.weights and transits = t.transits in
  let id = ref 0 in
  for a = 0 to count - 1 do
    if Bytes.get alive a <> '\000' then begin
      let i = !id in
      let src = srcs.{a} and dst = dsts.{a} in
      let weight = weights.{a} and transit = transits.{a} in
      Bigarray.Array1.unsafe_set arc_src i src;
      Bigarray.Array1.unsafe_set arc_dst i dst;
      Bigarray.Array1.unsafe_set arc_weight i (sg * weight);
      Bigarray.Array1.unsafe_set arc_transit i transit;
      if index then begin
        Fingerprint.add sum ~arc:i ~src ~dst ~weight ~transit;
        mos.{a} <- i;
        som.{i} <- a
      end;
      id := i + 1
    end
    else if index then mos.{a} <- -1
  done;
  sum

(* The off-heap words of a graph: four label arrays and the CSR. *)
let csr_words g = (5 * Digraph.m g) + Digraph.n g + 1

(* Whether part [p] covers every node.  Such a part holds every live
   arc, so every structural edit touches it, and it is the
   materialization itself, as Scc.partition hands it back. *)
let covers t p = Array.length p.p_nodes = t.nn

(* Session arc of part [p]'s sub arc [i]. *)
let arc_of t p i = if covers t p then t.session_of_mat.{i} else p.p_arcs.(i)

(* Counts a replaced part's subgraph as dropped; one covering every
   node lives in the session's own buffers. *)
let drop_part t p =
  if not (covers t p) then t.dropped <- t.dropped + csr_words p.p_sub

(* Refills [mat] in the session's buffers, growing them first when the
   live arcs outgrew them. *)
let rebuild_mat t =
  let m = t.live in
  if m > Bigarray.Array1.dim t.buf_out then begin
    t.dropped <- t.dropped + (5 * Bigarray.Array1.dim t.buf_out);
    t.buf_src <- reserve t.buf_src m;
    t.buf_dst <- reserve t.buf_dst m;
    t.buf_weight <- reserve t.buf_weight m;
    t.buf_transit <- reserve t.buf_transit m;
    t.buf_out <- reserve t.buf_out m
  end;
  t.mat_of_session <- grow t.mat_of_session (arc_count t);
  t.session_of_mat <- reserve t.session_of_mat m;
  let arc_src = view t.buf_src m and arc_dst = view t.buf_dst m in
  let arc_weight = view t.buf_weight m and arc_transit = view t.buf_transit m in
  t.fp_sum <-
    materialize t ~sg:(sign t) ~index:true ~arc_src ~arc_dst ~arc_weight
      ~arc_transit;
  t.mat <-
    Digraph.Unsafe.of_label_arrays_into ~n:t.nn ~m ~arc_src ~arc_dst
      ~arc_weight ~arc_transit ~out_start:t.buf_start
      ~out_arcs:(view t.buf_out m)

let same_ints (a : int array) (b : int array) =
  let k = Array.length a in
  k = Array.length b
  &&
  let rec go i = i = k || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Whether the live arcs are those [refresh] last left: as many, and
   none inserted since alive (arcs that were live can only die). *)
let live_unchanged t =
  t.live = t.live_synced
  &&
  let rec go a = a >= arc_count t || ((not (arc_alive t a)) && go (a + 1)) in
  go t.count_synced

(* Full re-partition of the (already rebuilt) materialization, along
   its components [scc].  Components whose node set and (session-id)
   arc set are unchanged inherit their cached optimum and dirtiness —
   the incremental maintenance promise: an insertion or deletion only
   costs re-solves in the components it actually touched (merged,
   split, or entered).  A touched component is dirty and carries the
   old result of the component its first node was in, so its re-solve
   starts from that λ: any λ is a sound hint, and after a small edit
   it is often still the optimum. *)
let repartition t scc =
  let old_parts = t.parts and old_comp = t.comp_of_node in
  let subs = Scc.partition t.mat scc in
  let comp = Array.make t.nn (-1) in
  let parts =
    Array.mapi
      (fun ci (sp : Scc.subproblem) ->
        let p_nodes = sp.Scc.node_of_sub in
        let p_arcs =
          if Array.length p_nodes = t.nn then [||]
          else Array.map (fun ma -> t.session_of_mat.{ma}) sp.Scc.arc_of_sub
        in
        Array.iteri
          (fun i u ->
            comp.(u) <- ci;
            t.local_of_node.(u) <- i)
          p_nodes;
        Array.iteri (fun i a -> t.sub_idx.{a} <- i) p_arcs;
        (* carry-over: same nodes + same session arcs = same component *)
        let old =
          let oc = old_comp.(p_nodes.(0)) in
          if oc >= 0 then Some old_parts.(oc) else None
        in
        match old with
        | Some op
          when same_ints op.p_nodes p_nodes
               && (* a part covering every node holds every live arc,
                     and its arc map was rebuilt in place *)
               if covers t op then live_unchanged t
               else same_ints op.p_arcs p_arcs ->
          { p_nodes; p_arcs; p_sub = sp.Scc.sub; p_dirty = op.p_dirty;
            p_result = op.p_result }
        | _ ->
          { p_nodes; p_arcs; p_sub = sp.Scc.sub; p_dirty = true;
            p_result = Option.bind old (fun op -> op.p_result) })
      subs
  in
  Array.iter (drop_part t) old_parts;
  t.parts <- parts;
  t.comp_of_node <- comp

(* The part holding live arc [a] under the current partition, or -1
   for an arc between components or at a node in none. *)
let part_of_arc t a =
  let cu = t.comp_of_node.(t.srcs.{a}) in
  if cu >= 0 && cu = t.comp_of_node.(t.dsts.{a}) then cu else -1

(* Part [p] after live arc [a] was [added] to it or removed from it,
   in the renumbering and arc order Scc.partition gives: the nodes
   keep their indices, and the arcs come in increasing session id —
   an inserted arc has the largest, so it comes last.  A part covering
   every node is the rebuilt materialization, and allocates nothing in
   proportion to it.  Another gets a fresh subgraph and arc map, and
   [sub_idx] is rewritten from the edit on.  The part is dirty and
   keeps its own result as the hint. *)
let edited_part t (p : part) a ~added =
  if covers t p then { p with p_sub = t.mat; p_dirty = true }
  else begin
    let k = Array.length p.p_arcs in
    let arcs, from =
      if added then (Array.append p.p_arcs [| a |], k)
      else begin
        let i = t.sub_idx.{a} in
        (Array.append (Array.sub p.p_arcs 0 i)
           (Array.sub p.p_arcs (i + 1) (k - i - 1)), i)
      end
    in
    for i = from to Array.length arcs - 1 do
      t.sub_idx.{arcs.(i)} <- i
    done;
    let m = Array.length arcs and sg = sign t in
    let srcs = ia m and dsts = ia m and ws = ia m and ts = ia m in
    Array.iteri
      (fun i a ->
        srcs.{i} <- t.local_of_node.(t.srcs.{a});
        dsts.{i} <- t.local_of_node.(t.dsts.{a});
        ws.{i} <- sg * t.weights.{a};
        ts.{i} <- t.transits.{a})
      arcs;
    let sub =
      Digraph.Unsafe.of_label_arrays ~n:(Array.length p.p_nodes) ~m
        ~arc_src:srcs ~arc_dst:dsts ~arc_weight:ws ~arc_transit:ts
    in
    { p with p_arcs = arcs; p_sub = sub; p_dirty = true }
  end

(* Whether [v] is reachable from [u] in [g]: a breadth-first search
   over the CSR, in this domain's probe workspace, that stops at [v]. *)
let reaches g u v =
  u = v
  ||
  let n = Digraph.n g in
  let start, out = Digraph.Unsafe.out_csr g in
  let heads = Digraph.Unsafe.dsts g in
  Probe.borrow ~n ~m:0 (fun ws ->
      let seen = ws.Probe.mark and queue = ws.Probe.stack in
      Bigarray.Array1.fill (Bigarray.Array1.sub seen 0 n) 0;
      seen.{u} <- 1;
      queue.{0} <- u;
      let head = ref 0 and tail = ref 1 and found = ref false in
      while (not !found) && !head < !tail do
        let x = queue.{!head} in
        incr head;
        for i = start.{x} to start.{x + 1} - 1 do
          let y = heads.{out.{i}} in
          if seen.{y} = 0 then begin
            if y = v then found := true;
            seen.{y} <- 1;
            queue.{!tail} <- y;
            incr tail
          end
        done
      done;
      !found)

(* Puts the parts in the order of [scc]'s component ids, which is the
   order Scc.partition would give them: an edit can change Tarjan's
   finish order, and component order decides Fanout.best's ties. *)
let reorder t (scc : Scc.t) =
  let key (p : part) = scc.Scc.component.(p.p_nodes.(0)) in
  let parts = t.parts in
  let sorted = ref true in
  for i = 1 to Array.length parts - 1 do
    if key parts.(i - 1) > key parts.(i) then sorted := false
  done;
  if not !sorted then begin
    let parts = Array.copy parts in
    Array.stable_sort (fun p q -> Int.compare (key p) (key q)) parts;
    Array.iteri
      (fun ci p -> Array.iter (fun u -> t.comp_of_node.(u) <- ci) p.p_nodes)
      parts;
    t.parts <- parts
  end

type outcome =
  | Local  (* the partition is current, only the touched part rebuilt *)
  | Full of Scc.t option  (* re-partition; the new components, if known *)

(* [refresh]'s local path, after [rebuild_mat].  It applies when the
   one pending structural edit provably leaves the set of cyclic
   components as it was: an insertion inside one, a removal of an arc
   in none, or a removal of an arc (u, v) inside one that still holds
   a path from u to v (every path through the arc can take it instead,
   so the component stays strongly connected). *)
let refresh_locally t =
  let a, added =
    match t.pending with
    | Added a -> (a, true)
    | Removed a -> (a, false)
    | Synced | Stale -> (-1, false)
  in
  let ci = if a < 0 then -1 else part_of_arc t a in
  if a < 0 || (added && ci < 0) then Full None
  else begin
    (* with one part, component order cannot change; with more, the
       new graph's Tarjan fixes it and checks a removal *)
    let scc = if Array.length t.parts >= 2 then Some (Scc.compute t.mat) else None in
    let intact p =
      (Array.length p.p_nodes >= 2 || Digraph.m p.p_sub > 0)
      &&
      match scc with
      | Some scc ->
        let c = scc.Scc.component.(p.p_nodes.(0)) in
        Array.for_all (fun u -> scc.Scc.component.(u) = c) p.p_nodes
      | None ->
        reaches p.p_sub t.local_of_node.(t.srcs.{a})
          t.local_of_node.(t.dsts.{a})
    in
    let kept =
      ci < 0
      ||
      let p = edited_part t t.parts.(ci) a ~added in
      let ok = added || intact p in
      if ok then begin
        drop_part t t.parts.(ci);
        t.parts.(ci) <- p
      end;
      ok
    in
    if kept then begin
      Option.iter (reorder t) scc;
      Local
    end
    else Full scc
  end

let synced t = match t.pending with Synced -> true | _ -> false

(* Dirty the cyclic component containing live arc [a], updating the
   materialized copies of its label in place.  O(1).  A part covering
   every node is [t.mat] itself, so the first pair of writes covers
   it, and its [sub_idx] entries are not kept. *)
let touch_label t a ~dirties =
  if synced t then begin
    let ma = t.mat_of_session.{a} in
    let sg = sign t in
    Digraph.Unsafe.set_weight t.mat ma (sg * t.weights.{a});
    Digraph.Unsafe.set_transit t.mat ma t.transits.{a};
    let cu = part_of_arc t a in
    if cu >= 0 then begin
      let p = t.parts.(cu) in
      if not (covers t p) then begin
        let i = t.sub_idx.{a} in
        Digraph.Unsafe.set_weight p.p_sub i (sg * t.weights.{a});
        Digraph.Unsafe.set_transit p.p_sub i t.transits.{a}
      end;
      if dirties then p.p_dirty <- true
    end
  end
  else Vec.push t.pending_labels ((a lsl 1) lor Bool.to_int dirties)

(* [refresh] finishes the major GC cycle once per this many structural
   refreshes, and collects the minor heap at every one.  A structural
   step rebuilds the session's graph in its own buffers, so a step
   whose component covers every node leaves no graph behind, only the
   garbage of its query and of the protocol around it (witness lists,
   replies, cache entries): about 1,500 minor words a step.  Left to
   the GC, that let [ocr stream] on a 4096-register circuit grow its
   major heap from 165k to 310k words, and its resident minor heap
   from about 640 KB to all 2 MB of it, since every page the minor
   heap's allocation has swept stays resident.  A minor collection per
   structural refresh (every seven steps or so there) and a major
   cycle (about 0.16 ms there) per 16 held the peak RSS 1.6 MB under
   what a major cycle per refresh gave.  A major cycle per 8 would
   come every 50 steps or so, in 2% of them: more than the 1% beyond
   the p99. *)
let cycle_every = 16

(* [refresh]'s work, once per structural step that a query or a
   fingerprint settles (docs/OBS.md). *)
let sp_rebuild = Obs.intern "dyn.rebuild"

(* Brings the materialization and the partition up to date: one
   rebuild of the materialization in the session's buffers, then the
   local path or a full re-partition, then the label edits made
   meanwhile land in place as they would have on a current
   partition. *)
let refresh t =
  if not (synced t) then begin
    let tr = !Obs.enabled_flag in
    if tr then Trace.begin_span sp_rebuild;
    t.sub_idx <- grow t.sub_idx (arc_count t);
    rebuild_mat t;
    (match refresh_locally t with
    | Local -> t.local_refreshes <- t.local_refreshes + 1
    | Full scc ->
      t.full_refreshes <- t.full_refreshes + 1;
      repartition t
        (match scc with Some scc -> scc | None -> Scc.compute t.mat));
    t.pending <- Synced;
    t.count_synced <- arc_count t;
    t.live_synced <- t.live;
    Vec.iter
      (fun code ->
        let a = code lsr 1 in
        if arc_alive t a then touch_label t a ~dirties:(code land 1 = 1))
      t.pending_labels;
    Vec.clear t.pending_labels;
    (* The one collection rule: a minor collection, and a major cycle
       every [cycle_every] structural refreshes or once the subgraphs
       of other parts this session dropped off the heap reach a
       quarter of it, since OCaml frees a Bigarray's storage only when
       a major cycle sweeps it.  It applies when the heap is at most 16
       materializations; a process whose heap dwarfs the session is
       left to the GC's pacing, in which the session's garbage is a
       small share. *)
    let heap = (Gc.quick_stat ()).Gc.heap_words in
    if heap <= 16 * csr_words t.mat then begin
      t.since_cycle <- t.since_cycle + 1;
      if t.since_cycle >= cycle_every || t.dropped * 4 >= heap then begin
        Gc.major ();
        t.dropped <- 0;
        t.since_cycle <- 0
      end
      else Gc.minor ()
    end;
    if tr then Trace.end_span sp_rebuild
  end

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)
(* ------------------------------------------------------------------ *)

let bump t = t.ep <- t.ep + 1

(* Applies [Fingerprint.add] or [sub] to live arc [a]'s term at its
   materialized id.  While the materialization is invalid there is no
   sum to keep: [rebuild_mat] recomputes it. *)
let fp_term t a f =
  if synced t then
    f t.fp_sum ~arc:t.mat_of_session.{a} ~src:t.srcs.{a} ~dst:t.dsts.{a}
      ~weight:t.weights.{a} ~transit:t.transits.{a}

let set_weight t a w =
  check_arc "set_weight" t a;
  let old = t.weights.{a} in
  fp_term t a Fingerprint.sub;
  t.weights.{a} <- w;
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
  let old = t.transits.{a} in
  fp_term t a Fingerprint.sub;
  t.transits.{a} <- tt;
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
  t.srcs <- grow t.srcs (id + 1);
  t.dsts <- grow t.dsts (id + 1);
  t.weights <- grow t.weights (id + 1);
  t.transits <- grow t.transits (id + 1);
  if id = Bytes.length t.alive then
    t.alive <- Bytes.extend t.alive 0 (max 1 id);
  t.srcs.{id} <- src;
  t.dsts.{id} <- dst;
  t.weights.{id} <- weight;
  t.transits.{id} <- transit;
  Bytes.set t.alive id '\001';
  t.count <- id + 1;
  t.live <- t.live + 1;
  t.total_tt <- t.total_tt + transit;
  (* [wabs] is an upper bound when stale; a new arc at or above it
     dominates every live weight and makes the bound exact again *)
  if abs weight >= t.wabs then begin
    t.wabs <- abs weight;
    t.wabs_stale <- false
  end;
  (* an arc with positive transit closes no zero-transit cycle, and no
     insertion opens one up *)
  if transit = 0 && t.ratio_ok = Some true then t.ratio_ok <- None;
  t.pending <- (match t.pending with Synced -> Added id | _ -> Stale);
  bump t;
  id

let remove_arc t a =
  check_arc "remove_arc" t a;
  Bytes.set t.alive a '\000';
  t.live <- t.live - 1;
  t.total_tt <- t.total_tt - t.transits.{a};
  if abs t.weights.{a} >= t.wabs then t.wabs_stale <- true;
  (* a removal cannot close a zero-transit cycle, only open one *)
  if t.ratio_ok = Some false then t.ratio_ok <- None;
  t.pending <- (match t.pending with Synced -> Removed a | _ -> Stale);
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
    if arc_alive t a && abs t.weights.{a} > !w then
      w := abs t.weights.{a}
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
  (lambda, List.map (arc_of t p) cyc, st)

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
  let m = t.live in
  let arc_src = ia m and arc_dst = ia m in
  let arc_weight = ia m and arc_transit = ia m in
  ignore
    (materialize t ~sg:1 ~index:false ~arc_src ~arc_dst ~arc_weight
       ~arc_transit);
  Digraph.Unsafe.of_label_arrays ~n:t.nn ~m ~arc_src ~arc_dst ~arc_weight
    ~arc_transit

let to_graph_arc t a =
  check_arc "to_graph_arc" t a;
  refresh t;
  t.mat_of_session.{a}

let of_graph_arc t ma =
  refresh t;
  if ma < 0 || ma >= Digraph.m t.mat then
    invalid_arg "Dyn.of_graph_arc: arc out of range";
  t.session_of_mat.{ma}

(* O(1) after label edits: the sums follow every edit.  After a
   structural update it re-partitions, as the query it keys would. *)
let fingerprint t =
  refresh t;
  Fingerprint.finish t.fp_sum ~n:t.nn ~m:t.live

type partition = {
  parts : (int array * int array * Digraph.t) array;
  local_refreshes : int;
  full_refreshes : int;
}

let partition t =
  refresh t;
  {
    parts =
      Array.map
        (fun p ->
          ( p.p_nodes,
            Array.init (Digraph.m p.p_sub) (arc_of t p),
            p.p_sub ))
        t.parts;
    local_refreshes = t.local_refreshes;
    full_refreshes = t.full_refreshes;
  }

let replay ?problem ?objective ?jobs ?pool g updates =
  let t = create ?problem ?objective ?jobs ?pool g in
  List.iter (apply t) updates;
  t
