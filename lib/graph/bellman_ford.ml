type _ costs = Int : int array -> int costs | Float : float array -> float costs

type 'd outcome = Feasible of 'd array | Negative_cycle of int list

(* relax-pass span: one span per engine run, recorded only when
   tracing is on — the engine is the inner loop of the exact finisher
   and must stay allocation-free when observability is off *)
let sp_run = Obs.intern "bf.run"

type int_array1 = Digraph.int_array1

(* FIFO Bellman-Ford ("Moore") from a virtual super-source: every node
   starts at distance 0 and is queued in order 0..n-1.  Two rules
   trigger a predecessor-graph cycle search:

   - [Int] costs: every n relaxations (Cherkassky & Goldberg's
     amortized search, O(1) per relaxation), so a negative cycle is
     reported within n relaxations of forming, and an exact probe
     above λ* costs about n relaxations instead of up to n passes;
   - both cost types: a node reaching n+1 updates, its counter reset
     if the search is inconclusive.  This is the only rule of the
     [Float] drain, whose relaxation counts are Lawler's and OA's
     published operation counts (E9, test/probes), and a fallback for
     [Int].

   A search that finds no cycle changes nothing else, so a feasible run
   relaxes the same arcs in the same order under either rule.  The
   queue, the update counting and the cycle check below are shared by
   both cost types; only the loop that pops nodes and scans their arcs
   is written once per type, so each stays monomorphic and unboxed (a
   per-pop closure call would cost more than the scan of a sparse
   node). *)
type state = {
  g : Digraph.t;
  n : int;
  out_start : int_array1;
  out_arcs : int_array1;
  arc_dst : int_array1;
  on_relax : (unit -> unit) option;
  (* the workspace's buffers, all reset by [start] *)
  pred_arc : int_array1;
  times_updated : int_array1;
  in_queue : Probe.byte_array1;
  (* FIFO over a ring of capacity n+1: the [in_queue] guard keeps at
     most n nodes queued, so it never wraps onto itself.  This engine
     is the inner loop of every λ probe, so nothing is allocated per
     enqueue. *)
  ring : int_array1;
  mutable head : int;
  mutable tail : int;
  (* relaxations between amortized searches: n for [Int], [max_int]
     (never) for [Float] *)
  search_every : int;
  mutable since_search : int;
  mark : int_array1;
  mutable stamp : int;
  mutable found : int list option;
}

(* Searches the predecessor graph (at most one pred arc per node) for a
   cycle and returns its arcs in path order.  A classic invariant of
   Bellman-Ford (Cherkassky & Goldberg, "Negative-cycle detection
   algorithms") is that any cycle of the predecessor graph is a
   negative cycle, so a hit here is a sound certificate.  O(n); only a
   hit allocates (the returned list).

   [mark.{v}] is the stamp of the last walk that visited [v]; every
   walk takes a fresh stamp above [st.stamp], so one search never
   clears the array: a node is unseen by the current search iff its
   mark is at most the stamp the search started from, on the current
   walk iff its mark equals the walk's stamp, and done otherwise.  The
   marks and the stamp are kept across all the searches of one run, so
   an inconclusive search allocates nothing. *)
let find_pred_cycle st =
  let n = st.n and mark = st.mark and pred_arc = st.pred_arc in
  let srcs = Digraph.Unsafe.srcs st.g in
  let base = st.stamp in
  let result = ref None in
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    if Bigarray.Array1.unsafe_get mark !v <= base then begin
      (* walk backwards along predecessors *)
      st.stamp <- st.stamp + 1;
      let walk = st.stamp in
      let x = ref !v in
      let continue = ref true in
      while !continue do
        let mx = Bigarray.Array1.unsafe_get mark !x in
        let px = Bigarray.Array1.unsafe_get pred_arc !x in
        if px < 0 || (mx > base && mx < walk) then continue := false
        else if mx = walk then begin
          (* found a cycle through !x: collect until we return to it *)
          continue := false;
          let arcs = ref [] in
          let y = ref !x in
          let go = ref true in
          while !go do
            let a = Bigarray.Array1.unsafe_get pred_arc !y in
            arcs := a :: !arcs;
            y := Bigarray.Array1.unsafe_get srcs a;
            if !y = !x then go := false
          done;
          result := Some !arcs
        end
        else begin
          Bigarray.Array1.unsafe_set mark !x walk;
          x := Bigarray.Array1.unsafe_get srcs px
        end
      done
    end;
    incr v
  done;
  !result

let[@inline] enqueue st v =
  if Bigarray.Array1.unsafe_get st.in_queue v = 0 then begin
    Bigarray.Array1.unsafe_set st.in_queue v 1;
    Bigarray.Array1.unsafe_set st.ring st.tail v;
    st.tail <- (if st.tail = st.n then 0 else st.tail + 1)
  end

let[@inline] pop st =
  let u = Bigarray.Array1.unsafe_get st.ring st.head in
  st.head <- (if st.head = st.n then 0 else st.head + 1);
  Bigarray.Array1.unsafe_set st.in_queue u 0;
  u

(* bookkeeping after arc [a] lowered [v]'s distance *)
let[@inline] relaxed st v a =
  (match st.on_relax with Some f -> f () | None -> ());
  Bigarray.Array1.unsafe_set st.pred_arc v a;
  let k = Bigarray.Array1.unsafe_get st.times_updated v + 1 in
  Bigarray.Array1.unsafe_set st.times_updated v k;
  st.since_search <- st.since_search + 1;
  let n_plus_one = k > st.n in
  if n_plus_one || st.since_search >= st.search_every then begin
    if n_plus_one then Bigarray.Array1.unsafe_set st.times_updated v 0;
    st.since_search <- 0;
    match find_pred_cycle st with
    | Some _ as cycle -> st.found <- cycle
    | None -> enqueue st v
  end
  else enqueue st v

(* The drains walk the raw CSR Bigarrays rather than going through
   [Digraph.iter_out]: they visit every out-arc of every popped node,
   and the per-pop closure plus per-arc accessor calls are measurable
   against the handful of loads they actually need.  All indices come
   from the graph's own CSR, and the workspace holds at least n nodes
   and m arcs, so unsafe accesses are in bounds by construction. *)
let drain_int st (costs : int_array1) (dist : int_array1) =
  while Option.is_none st.found && st.head <> st.tail do
    let u = pop st in
    let du = Bigarray.Array1.unsafe_get dist u in
    let hi = Bigarray.Array1.unsafe_get st.out_start (u + 1) in
    let i = ref (Bigarray.Array1.unsafe_get st.out_start u) in
    while Option.is_none st.found && !i < hi do
      let a = Bigarray.Array1.unsafe_get st.out_arcs !i in
      incr i;
      let v = Bigarray.Array1.unsafe_get st.arc_dst a in
      let cand = du + Bigarray.Array1.unsafe_get costs a in
      if cand < Bigarray.Array1.unsafe_get dist v then begin
        Bigarray.Array1.unsafe_set dist v cand;
        relaxed st v a
      end
    done
  done

(* Same as [drain_int] except that [dist.(u)] is re-read for every arc,
   so a negative self-loop on [u] lowers it for the arcs scanned after
   the loop.  Lawler's and OA's published operation counts (E9,
   test/probes) are taken with this order. *)
let drain_float st (costs : float array) (dist : float array) =
  while Option.is_none st.found && st.head <> st.tail do
    let u = pop st in
    let hi = Bigarray.Array1.unsafe_get st.out_start (u + 1) in
    let i = ref (Bigarray.Array1.unsafe_get st.out_start u) in
    while Option.is_none st.found && !i < hi do
      let a = Bigarray.Array1.unsafe_get st.out_arcs !i in
      incr i;
      let v = Bigarray.Array1.unsafe_get st.arc_dst a in
      let cand = dist.(u) +. Array.unsafe_get costs a in
      if cand < dist.(v) then begin
        dist.(v) <- cand;
        relaxed st v a
      end
    done
  done

(* A run's state over the borrowed workspace [ws]: counters, marks and
   predecessors reset, every node queued in order 0..n-1. *)
let start ?on_relax ~search_every (ws : Probe.t) g =
  let n = Digraph.n g in
  let out_start, out_arcs = Digraph.Unsafe.out_csr g in
  for v = 0 to n - 1 do
    Bigarray.Array1.unsafe_set ws.pred_arc v (-1);
    Bigarray.Array1.unsafe_set ws.times_updated v 0;
    Bigarray.Array1.unsafe_set ws.mark v 0;
    Bigarray.Array1.unsafe_set ws.in_queue v 1;
    Bigarray.Array1.unsafe_set ws.ring v v
  done;
  {
    g;
    n;
    out_start;
    out_arcs;
    arc_dst = Digraph.Unsafe.dsts g;
    on_relax;
    pred_arc = ws.pred_arc;
    times_updated = ws.times_updated;
    in_queue = ws.in_queue;
    ring = ws.ring;
    head = 0;
    tail = n;
    search_every;
    since_search = 0;
    mark = ws.mark;
    stamp = 0;
    found = None;
  }

let probe ?on_relax (ws : Probe.t) g =
  if Digraph.n g > ws.node_cap || Digraph.m g > ws.arc_cap then
    invalid_arg "Bellman_ford.probe: workspace smaller than the graph";
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_run;
  let st = start ?on_relax ~search_every:(Digraph.n g) ws g in
  let dist = ws.dist in
  for v = 0 to st.n - 1 do
    Bigarray.Array1.unsafe_set dist v 0
  done;
  drain_int st ws.costs dist;
  if tr then Trace.end_span sp_run;
  st.found

let run (type d) ?on_relax (costs : d costs) g : d outcome =
  let n = Digraph.n g and m = Digraph.m g in
  let len = match costs with Int c -> Array.length c | Float c -> Array.length c in
  if len <> m then invalid_arg "Bellman_ford.run: costs length <> arc count";
  match costs with
  | Int c ->
    Probe.borrow ~n ~m (fun ws ->
        let wc = ws.Probe.costs and dist = ws.Probe.dist in
        Array.iteri (fun a x -> Bigarray.Array1.unsafe_set wc a x) c;
        match probe ?on_relax ws g with
        | Some cycle -> Negative_cycle cycle
        | None -> Feasible (Array.init n (fun v -> Bigarray.Array1.unsafe_get dist v)))
  | Float c ->
    Probe.borrow ~n ~m:0 (fun ws ->
        let tr = !Obs.enabled_flag in
        if tr then Trace.begin_span sp_run;
        let st = start ?on_relax ~search_every:max_int ws g in
        let dist = Array.make n 0.0 in
        drain_float st c dist;
        if tr then Trace.end_span sp_run;
        match st.found with
        | Some cycle -> Negative_cycle cycle
        | None -> Feasible dist)
