type _ costs = Int : int array -> int costs | Float : float array -> float costs

type 'd outcome = Feasible of 'd array | Negative_cycle of int list

(* relax-pass span: one span per engine run, recorded only when
   tracing is on — the engine is the inner loop of the exact finisher
   and must stay allocation-free when observability is off *)
let sp_run = Obs.intern "bf.run"

(* Workspace of the predecessor-graph search.  [mark.(v)] is the stamp
   of the last walk that visited [v]; every walk takes a fresh stamp
   above [stamp], so one search never clears the array: a node is
   unseen by the current search iff its mark is at most the stamp the
   search started from, on the current walk iff its mark equals the
   walk's stamp, and done otherwise.  Held by the engine across all the
   searches of one run, so an inconclusive search allocates nothing. *)
type pred_search = { mark : int array; mutable stamp : int }

let pred_search n = { mark = Array.make n 0; stamp = 0 }

(* Searches the predecessor graph (at most one pred arc per node) for a
   cycle and returns its arcs in path order.  A classic invariant of
   Bellman-Ford (Cherkassky & Goldberg, "Negative-cycle detection
   algorithms") is that any cycle of the predecessor graph is a
   negative cycle, so a hit here is a sound certificate.  O(n); only a
   hit allocates (the returned list). *)
let find_pred_cycle ps g pred_arc =
  let n = Digraph.n g in
  let mark = ps.mark in
  let base = ps.stamp in
  let result = ref None in
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    if mark.(!v) <= base then begin
      (* walk backwards along predecessors *)
      ps.stamp <- ps.stamp + 1;
      let walk = ps.stamp in
      let x = ref !v in
      let continue = ref true in
      while !continue do
        let mx = mark.(!x) in
        if pred_arc.(!x) < 0 || (mx > base && mx < walk) then
          continue := false
        else if mx = walk then begin
          (* found a cycle through !x: collect until we return to it *)
          continue := false;
          let arcs = ref [] in
          let y = ref !x in
          let go = ref true in
          while !go do
            let a = pred_arc.(!y) in
            arcs := a :: !arcs;
            y := Digraph.src g a;
            if !y = !x then go := false
          done;
          result := Some !arcs
        end
        else begin
          mark.(!x) <- walk;
          x := Digraph.src g pred_arc.(!x)
        end
      done
    end;
    incr v
  done;
  !result

let cycle_in_pred_graph g pred_arc =
  find_pred_cycle (pred_search (Digraph.n g)) g pred_arc

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
  out_start : Digraph.int_array1;
  out_arcs : Digraph.int_array1;
  arc_dst : Digraph.int_array1;
  on_relax : (unit -> unit) option;
  pred_arc : int array;
  times_updated : int array;
  in_queue : bool array;
  (* FIFO over a preallocated ring: the [in_queue] guard keeps at most
     n nodes queued, so capacity n+1 never wraps onto itself.  This
     engine is the inner loop of every λ probe, so nothing is allocated
     per enqueue. *)
  ring : int array;
  mutable head : int;
  mutable tail : int;
  (* relaxations between amortized searches: n for [Int], [max_int]
     (never) for [Float] *)
  search_every : int;
  mutable since_search : int;
  ps : pred_search;
  mutable found : int list option;
}

let[@inline] enqueue st v =
  if not st.in_queue.(v) then begin
    st.in_queue.(v) <- true;
    st.ring.(st.tail) <- v;
    st.tail <- (if st.tail = st.n then 0 else st.tail + 1)
  end

let[@inline] pop st =
  let u = st.ring.(st.head) in
  st.head <- (if st.head = st.n then 0 else st.head + 1);
  st.in_queue.(u) <- false;
  u

(* bookkeeping after arc [a] lowered [v]'s distance *)
let[@inline] relaxed st v a =
  (match st.on_relax with Some f -> f () | None -> ());
  st.pred_arc.(v) <- a;
  st.times_updated.(v) <- st.times_updated.(v) + 1;
  st.since_search <- st.since_search + 1;
  let n_plus_one = st.times_updated.(v) > st.n in
  if n_plus_one || st.since_search >= st.search_every then begin
    if n_plus_one then st.times_updated.(v) <- 0;
    st.since_search <- 0;
    match find_pred_cycle st.ps st.g st.pred_arc with
    | Some _ as cycle -> st.found <- cycle
    | None -> enqueue st v
  end
  else enqueue st v

(* The drains walk the raw CSR Bigarrays rather than going through
   [Digraph.iter_out]: they visit every out-arc of every popped node,
   and the per-pop closure plus per-arc accessor calls are measurable
   against the handful of loads they actually need.  All indices come
   from the graph's own CSR, so unsafe reads are in bounds by
   construction. *)
let drain_int st (costs : int array) (dist : int array) =
  while Option.is_none st.found && st.head <> st.tail do
    let u = pop st in
    let du = dist.(u) in
    let hi = Bigarray.Array1.unsafe_get st.out_start (u + 1) in
    let i = ref (Bigarray.Array1.unsafe_get st.out_start u) in
    while Option.is_none st.found && !i < hi do
      let a = Bigarray.Array1.unsafe_get st.out_arcs !i in
      incr i;
      let v = Bigarray.Array1.unsafe_get st.arc_dst a in
      let cand = du + Array.unsafe_get costs a in
      if cand < dist.(v) then begin
        dist.(v) <- cand;
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

let run (type d) ?on_relax (costs : d costs) g : d outcome =
  let len = match costs with Int c -> Array.length c | Float c -> Array.length c in
  if len <> Digraph.m g then
    invalid_arg "Bellman_ford.run: costs length <> arc count";
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_run;
  let n = Digraph.n g in
  let out_start, out_arcs = Digraph.Unsafe.out_csr g in
  let st =
    {
      g;
      n;
      out_start;
      out_arcs;
      arc_dst = Digraph.Unsafe.dsts g;
      on_relax;
      pred_arc = Array.make n (-1);
      times_updated = Array.make n 0;
      in_queue = Array.make n false;
      ring = Array.make (n + 1) 0;
      head = 0;
      tail = 0;
      search_every = (match costs with Int _ -> n | Float _ -> max_int);
      since_search = 0;
      ps = pred_search n;
      found = None;
    }
  in
  for v = 0 to n - 1 do
    enqueue st v
  done;
  let dist : d array =
    match costs with
    | Int c ->
      let dist = Array.make n 0 in
      drain_int st c dist;
      dist
    | Float c ->
      let dist = Array.make n 0.0 in
      drain_float st c dist;
      dist
  in
  if tr then Trace.end_span sp_run;
  match st.found with
  | Some cycle -> Negative_cycle cycle
  | None -> Feasible dist
