type init = [ `Cheapest_arc | `First_arc | `Random of int ]

(* Tracing span names, interned once at module initialization.  Every
   recording below sits behind one [tr] check sampled at solve entry,
   so the disabled path costs a handful of branches per iteration and
   allocates nothing — the kernel's Gc tests run with the
   instrumentation compiled in.  A traced solve records two records per
   iteration (the [howard.iteration] span) and three per solve (the
   [howard.solve] span and one [howard.improved] sample, the solve's
   total of improving arcs): a sub-span per phase would triple the
   records of a cheap iteration and wrap a serving process's ring. *)
let sp_solve = Obs.intern "howard.solve"
let sp_iter = Obs.intern "howard.iteration"
let sp_improved = Obs.intern "howard.improved"

type int_array1 = Digraph.int_array1
type float_array1 =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ia len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len
let fa len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

(* Reusable workspace: every array the steady-state policy iteration
   touches is preallocated here, so iterations allocate nothing on the
   minor heap (verified by the kernel's Gc.minor_words test).  The hot
   state — distances, the policy-reverse CSR, the BFS ring, and the
   per-chunk winner tables — lives in unboxed Bigarrays: off the OCaml
   heap (the GC never scans or moves it) and therefore shareable
   across domains without copying, which is what lets sweep chunks on
   worker domains read [d] and write their winner tables in place.
   One record serves repeated solves, growing monotonically to the
   largest instance seen. *)
type scratch = {
  mutable cap : int; (* arrays valid for n <= cap *)
  mutable d : float_array1;
  mutable pi : int array;
  (* policy-reverse adjacency in CSR form, rebuilt by counting sort
     each iteration: predecessors of v under u -> dst(pi(u)) are
     rev_nodes.{rev_start.{v} .. rev_start.{v+1} - 1} *)
  mutable rev_start : int_array1;  (* n+1 *)
  mutable rev_cursor : int_array1; (* n+1, fill cursors for the sort *)
  mutable rev_nodes : int_array1;  (* n: each node is one predecessor *)
  mutable queue : int_array1;      (* n: BFS buffer (each node enters once) *)
  mutable visited : bool array;    (* n *)
  mutable color : int array;       (* n: 0 unseen, 1 on walk, 2 done *)
  mutable pos : int array;         (* n *)
  mutable walk : int array;        (* n+1 *)
  mutable cycle_arcs : int array;  (* n: best policy cycle, path order *)
  (* all-ones denominator, the cycle-mean counterpart of the graph's
     transit array: the sweep reads one uniform [dens] array for both
     problems, and multiplying by an exact 1.0 is bit-identical to the
     mean form's plain [-. lambda] *)
  mutable ones_cap : int;
  mutable ones : int_array1;       (* ones_cap >= m, every entry 1 *)
  (* Chunked improvement sweep (serial and parallel paths share it):
     chunk [ci] records, for every node it saw as an arc source, the
     best candidate value and the lowest arc id attaining it.  Stamps
     replace per-iteration fills: an entry is live iff its stamp equals
     [sweep_epoch], which increases monotonically across iterations and
     solves, so reusing a scratch never reads stale winners. *)
  mutable sweep_epoch : int;
  sweep_lambda : float array;        (* current λ, read by chunk tasks;
                                        a 1-cell float array so the
                                        per-iteration store stays
                                        unboxed (a mutable float field
                                        of this mixed record would box
                                        on every write) *)
  sweep_eps : float array;           (* convergence threshold ε·scale;
                                        same 1-cell trick — passing it
                                        as a float argument would box
                                        at every apply_winners call *)
  mutable chunk_cap : int;           (* chunk tables allocated *)
  mutable chunk_n : int;             (* inner arrays valid for n <= chunk_n *)
  mutable chunk_cand : float_array1 array; (* chunk -> node -> best cand *)
  mutable chunk_arc : int_array1 array;    (* chunk -> node -> best arc *)
  mutable chunk_stamp : int_array1 array;  (* chunk -> node -> epoch *)
  mutable chunk_relax : int array;         (* chunk -> improving-arc count *)
}

let create_scratch () =
  {
    cap = 0;
    d = fa 0;
    pi = [||];
    rev_start = ia 0;
    rev_cursor = ia 0;
    rev_nodes = ia 0;
    queue = ia 0;
    visited = [||];
    color = [||];
    pos = [||];
    walk = [||];
    cycle_arcs = [||];
    ones_cap = 0;
    ones = ia 0;
    sweep_epoch = 0;
    sweep_lambda = Array.make 1 0.0;
    sweep_eps = Array.make 1 0.0;
    chunk_cap = 0;
    chunk_n = 0;
    chunk_cand = [||];
    chunk_arc = [||];
    chunk_stamp = [||];
    chunk_relax = [||];
  }

let ensure_scratch s n =
  if n > s.cap then begin
    s.cap <- n;
    s.d <- fa n;
    s.pi <- Array.make n (-1);
    s.rev_start <- ia (n + 1);
    s.rev_cursor <- ia (n + 1);
    s.rev_nodes <- ia n;
    s.queue <- ia n;
    s.visited <- Array.make n false;
    s.color <- Array.make n 0;
    s.pos <- Array.make n (-1);
    s.walk <- Array.make (n + 1) (-1)
  end;
  if Array.length s.cycle_arcs < n then s.cycle_arcs <- Array.make n (-1)

(* the all-ones denominator never changes after the fill, so growing it
   is the only write it ever sees *)
let ensure_ones s m =
  if m > s.ones_cap then begin
    s.ones <- ia m;
    Bigarray.Array1.fill s.ones 1;
    s.ones_cap <- m
  end;
  s.ones

let ensure_chunks s chunks =
  if chunks > s.chunk_cap || s.chunk_n < s.cap then begin
    let k = max chunks s.chunk_cap in
    s.chunk_cap <- k;
    s.chunk_n <- s.cap;
    s.chunk_cand <-
      Array.init k (fun _ ->
          let t = fa s.cap in
          Bigarray.Array1.fill t infinity;
          t);
    s.chunk_arc <-
      Array.init k (fun _ ->
          let t = ia s.cap in
          Bigarray.Array1.fill t (-1);
          t);
    s.chunk_stamp <-
      Array.init k (fun _ ->
          let t = ia s.cap in
          Bigarray.Array1.fill t 0;
          t);
    s.chunk_relax <- Array.make k 0
  end

(* One chunk of the improvement sweep (Figure 1, lines 13-18) over the
   arc range [lo, hi).  Candidates are evaluated against the node
   distances FROZEN at the start of the sweep — [d] is only read here,
   so chunks race-freely share it across domains (it is a Bigarray:
   plain memory no domain's GC ever moves) — and the chunk's winner
   table keeps, per source node, the smallest candidate with the lowest
   arc id on ties (arcs are visited in increasing id order, so a strict
   comparison keeps the first minimum).  [srcs]/[dsts]/[ws] are the
   graph's own label Bigarrays and [dens] the denominator (all ones for
   the mean problem, the transits for the ratio problem); each label is
   converted with [float_of_int] as it is read, which is exact for
   every admissible label (see Solver.preflight), so the graph keeps no
   float copy.  Allocation-free: all state lives in the preallocated
   chunk tables. *)
let sweep_chunk s ~srcs ~dsts ~ws ~dens lo hi ci =
  let d = s.d in
  let lambda = s.sweep_lambda.(0) in
  let epoch = s.sweep_epoch in
  let cand_t = s.chunk_cand.(ci)
  and arc_t = s.chunk_arc.(ci)
  and stamp_t = s.chunk_stamp.(ci) in
  let relax = ref 0 in
  for a = lo to hi - 1 do
    let u = (srcs : int_array1).{a} and v = (dsts : int_array1).{a} in
    let cand =
      d.{v}
      +. float_of_int (ws : int_array1).{a}
      -. (lambda *. float_of_int (dens : int_array1).{a})
    in
    if cand < d.{u} then incr relax;
    if stamp_t.{u} <> epoch || cand < cand_t.{u} then begin
      stamp_t.{u} <- epoch;
      cand_t.{u} <- cand;
      arc_t.{u} <- a
    end
  done;
  s.chunk_relax.(ci) <- !relax

(* Merge the per-chunk winner tables in chunk order — chunk [ci] covers
   strictly lower arc ids than chunk [ci+1], so keeping the earlier
   chunk on candidate ties preserves the global lowest-arc-id rule —
   and apply the merged winners to [d]/[pi].  Returns whether any node
   improved by more than [eps].  The partition of the arc range is
   invisible here: the merged winner, the relaxation total, and the
   improvement verdict are identical for every chunk count, which is
   what makes reports bit-identical across job counts. *)
let apply_winners s ~n ~chunks st =
  let eps = s.sweep_eps.(0) in
  let epoch = s.sweep_epoch in
  let d = s.d and pi = s.pi in
  let improved = ref false in
  for u = 0 to n - 1 do
    let bc = ref (-1) in
    for ci = 0 to chunks - 1 do
      if
        s.chunk_stamp.(ci).{u} = epoch
        && (!bc < 0 || s.chunk_cand.(ci).{u} < s.chunk_cand.(!bc).{u})
      then bc := ci
    done;
    if !bc >= 0 then begin
      let cand = s.chunk_cand.(!bc).{u} in
      let delta = d.{u} -. cand in
      if delta > 0.0 then begin
        d.{u} <- cand;
        pi.(u) <- s.chunk_arc.(!bc).{u};
        if delta > eps then improved := true
      end
    end
  done;
  for ci = 0 to chunks - 1 do
    st.Stats.relaxations <- st.Stats.relaxations + s.chunk_relax.(ci)
  done;
  !improved

(* Arcs-per-chunk grain for the sweep: a chunk below this many arcs is
   not worth a task spawn (queueing plus an O(chunks · n) merge beats
   the sweep itself), so the chunk count is
   [min jobs (m / grain)] — small components and small sweeps stay
   serial, big ones split into at-least-[grain]-arc chunks.  The
   default comes from [Executor.chunk_arcs ()] (4096, overridable via
   OCR_CHUNK_ARCS); [sweep_min_arcs] overrides it per solve — bench E14
   and the tie-merge property tests force chunking on small instances
   with it.  The grain never affects results, only where the arcs are
   swept. *)

let solve ?stats ?budget ?(init = `Cheapest_arc) ?scratch ?pool
    ?sweep_min_arcs ~problem ~epsilon g =
  if Digraph.m g = 0 then invalid_arg "Howard: graph has no arcs";
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_solve;
  let n = Digraph.n g and m = Digraph.m g in
  let s = match scratch with Some s -> s | None -> create_scratch () in
  ensure_scratch s n;
  (* the graph's unboxed arrays: endpoints, weights and the
     denominator (transits, or the scratch's ones) *)
  let srcs = Digraph.Unsafe.srcs g
  and dsts = Digraph.Unsafe.dsts g
  and ws = Digraph.Unsafe.weights g in
  let dens =
    match problem with
    | Critical.Cycle_ratio -> Digraph.Unsafe.transits g
    | Critical.Cycle_mean -> ensure_ones s m
  in
  let den = Critical.den problem g in
  (* chunk count for the improvement sweep, by the arcs-per-chunk cost
     model above: 1 (the serial path) without a multi-worker pool or
     on a sweep too small to amortize the fan-out *)
  let grain =
    match sweep_min_arcs with Some v -> v | None -> Executor.chunk_arcs ()
  in
  let chunks =
    match pool with
    | Some p -> Executor.chunks_for p ~work:m ~grain
    | None -> 1
  in
  ensure_chunks s chunks;
  let chunk_lo ci = ci * m / chunks in
  (* per-solve task closures, reused every iteration: each reads the
     current λ and epoch from the scratch, so the steady state only
     allocates the futures of the fan-out (O(chunks) words/iteration),
     never fresh sweep state *)
  let tasks =
    if chunks <= 1 then [||]
    else
      Array.init (chunks - 1) (fun i ->
          let ci = i + 1 in
          let lo = chunk_lo ci and hi = chunk_lo (ci + 1) in
          fun () -> sweep_chunk s ~srcs ~dsts ~ws ~dens lo hi ci)
  in
  (* unconditional counter updates beat an option match in the hot
     loop; the dummy costs one allocation per un-instrumented solve *)
  let st = match stats with Some st -> st | None -> Stats.create () in
  let d = s.d and pi = s.pi in
  (* initial policy: cheapest out-arc (Figure 1, lines 1-4) by
     default; the alternatives ablate how much the improved
     initialization buys (bench E9) *)
  for u = 0 to n - 1 do
    d.{u} <- infinity;
    pi.(u) <- -1
  done;
  (match init with
  | `Cheapest_arc ->
    for a = 0 to m - 1 do
      let u = srcs.{a} in
      let w = float_of_int ws.{a} in
      if w < d.{u} then begin
        d.{u} <- w;
        pi.(u) <- a
      end
    done
  | `First_arc ->
    for a = 0 to m - 1 do
      let u = srcs.{a} in
      if pi.(u) < 0 then begin
        pi.(u) <- a;
        d.{u} <- float_of_int ws.{a}
      end
    done
  | `Random seed ->
    (* xorshift-mixed reservoir choice among each node's out-arcs *)
    let state = ref (seed lxor 0x2545F4914F6CDD1D) in
    let next () =
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x;
      x land max_int
    in
    (* rejection sampling keeps the draw unbiased: a plain [next () mod
       deg] overweights small residues whenever deg does not divide
       max_int + 1 *)
    let draw deg =
      let lim = max_int - (max_int mod deg) in
      let rec go () =
        let x = next () in
        if x >= lim then go () else x mod deg
      in
      go ()
    in
    for u = 0 to n - 1 do
      let deg = Digraph.out_degree g u in
      if deg > 0 then begin
        let pick = draw deg in
        let i = ref 0 in
        Digraph.iter_out g u (fun a ->
            if !i = pick then begin
              pi.(u) <- a;
              d.{u} <- float_of_int ws.{a}
            end;
            incr i)
      end
    done);
  for u = 0 to n - 1 do
    if pi.(u) < 0 then invalid_arg "Howard: node without out-arc"
  done;
  let scale =
    let acc = ref 1 in
    for a = 0 to m - 1 do
      let w = abs (Digraph.weight g a) in
      if w > !acc then acc := w
    done;
    float_of_int !acc
  in
  s.sweep_eps.(0) <- epsilon *. scale;
  (* Policy evaluation (zero-allocation): find every cycle of the
     functional graph u -> dst(pi(u)) with colour stamps, track the one
     with the smallest exact ratio in the int refs below, and copy its
     arcs into [cycle_arcs] — materialized as a list only on return. *)
  let best_num = ref 0 in
  let best_den = ref 0 (* 0 = none found yet; real denominators are > 0 *) in
  let best_start = ref (-1) in
  let cycle_len = ref 0 in
  let eval_policy () =
    Array.fill s.color 0 n 0;
    best_den := 0;
    for start = 0 to n - 1 do
      if s.color.(start) = 0 then begin
        let len = ref 0 in
        let x = ref start in
        while s.color.(!x) = 0 do
          s.color.(!x) <- 1;
          s.pos.(!x) <- !len;
          s.walk.(!len) <- !x;
          incr len;
          x := dsts.{pi.(!x)}
        done;
        if s.color.(!x) = 1 then begin
          (* new cycle: walk.(pos(!x)) .. walk.(len-1) *)
          st.Stats.cycles_examined <- st.Stats.cycles_examined + 1;
          let num = ref 0 and dn = ref 0 in
          let first = s.pos.(!x) in
          for i = first to !len - 1 do
            let a = pi.(s.walk.(i)) in
            num := !num + Digraph.weight g a;
            dn := !dn + den a
          done;
          if !dn <= 0 then
            invalid_arg "Howard: policy cycle with non-positive denominator \
                         (zero-transit cycle in the ratio problem?)";
          let replace =
            !best_den = 0 || !num * !best_den < !best_num * !dn
          in
          if replace then begin
            best_num := !num;
            best_den := !dn;
            best_start := !x;
            cycle_len := !len - first;
            for i = first to !len - 1 do
              s.cycle_arcs.(i - first) <- pi.(s.walk.(i))
            done
          end
        end;
        (* close the walk *)
        for i = 0 to !len - 1 do
          s.color.(s.walk.(i)) <- 2
        done
      end
    done;
    assert (!best_den > 0) (* every functional graph has a cycle *)
  in
  let cap = (8 * n) + 64 in
  let relax0 = st.Stats.relaxations in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < cap do
    incr iter;
    (match budget with Some b -> Budget.tick b | None -> ());
    st.Stats.iterations <- st.Stats.iterations + 1;
    if tr then Trace.begin_span sp_iter;
    eval_policy ();
    let lambda = float_of_int !best_num /. float_of_int !best_den in
    (* node distances by reverse BFS from the cycle entry over policy
       arcs (Figure 1, lines 10-12).  The policy-reverse adjacency is
       counting-sorted into two preallocated int Bigarrays — no cons
       cells, no Queue nodes.  Subrange fills and the cursor copy are
       explicit loops: [Bigarray.Array1.sub] would allocate a view on
       every iteration. *)
    let rev_start = s.rev_start
    and rev_cursor = s.rev_cursor
    and rev_nodes = s.rev_nodes in
    for v = 0 to n do
      rev_start.{v} <- 0
    done;
    for u = 0 to n - 1 do
      let v = dsts.{pi.(u)} in
      rev_start.{v + 1} <- rev_start.{v + 1} + 1
    done;
    for v = 1 to n do
      rev_start.{v} <- rev_start.{v} + rev_start.{v - 1}
    done;
    for v = 0 to n do
      rev_cursor.{v} <- rev_start.{v}
    done;
    for u = 0 to n - 1 do
      let v = dsts.{pi.(u)} in
      rev_nodes.{rev_cursor.{v}} <- u;
      rev_cursor.{v} <- rev_cursor.{v} + 1
    done;
    Array.fill s.visited 0 n false;
    let queue = s.queue in
    let head = ref 0 and tail = ref 0 in
    s.visited.(!best_start) <- true;
    queue.{!tail} <- !best_start;
    incr tail;
    while !head < !tail do
      let x = queue.{!head} in
      incr head;
      for i = rev_start.{x} to rev_start.{x + 1} - 1 do
        let u = rev_nodes.{i} in
        if not s.visited.(u) then begin
          s.visited.(u) <- true;
          let a = pi.(u) in
          d.{u} <-
            d.{x} +. float_of_int ws.{a} -. (lambda *. float_of_int dens.{a});
          queue.{!tail} <- u;
          incr tail
        end
      done
    done;
    (* improvement sweep (Figure 1, lines 13-18): each chunk records
       per-node winners against the distances frozen above; the merge
       applies them.  With one chunk this is the serial kernel; with a
       pool, chunk 0 runs here while chunks 1.. run on the executor. *)
    s.sweep_epoch <- s.sweep_epoch + 1;
    s.sweep_lambda.(0) <- lambda;
    (match pool with
    | Some p when chunks > 1 ->
      let futs = Array.map (Executor.async p) tasks in
      sweep_chunk s ~srcs ~dsts ~ws ~dens 0 (chunk_lo 1) 0;
      Array.iter (fun fut -> Executor.await p fut) futs
    | _ -> sweep_chunk s ~srcs ~dsts ~ws ~dens 0 m 0);
    if not (apply_winners s ~n ~chunks st) then converged := true;
    if tr then Trace.end_span sp_iter
  done;
  if tr then Trace.counter_int sp_improved (st.Stats.relaxations - relax0);
  (* iteration cap hit: the best policy cycle of the current policy is
     still a sound candidate; the exact finisher corrects any gap.
     On convergence [cycle_arcs] already holds the cycle evaluated
     BEFORE the final sweep's sub-epsilon updates, as Figure 1 wants. *)
  if not !converged then eval_policy ();
  let cycle = ref [] in
  for i = !cycle_len - 1 downto 0 do
    cycle := s.cycle_arcs.(i) :: !cycle
  done;
  let answer = Critical.improve_to_optimal ?stats ~den g !cycle in
  if tr then Trace.end_span sp_solve;
  answer

let minimum_cycle_mean ?stats ?budget ?(epsilon = 1e-9) ?init ?scratch ?pool
    ?sweep_min_arcs g =
  solve ?stats ?budget ?init ?scratch ?pool ?sweep_min_arcs
    ~problem:Critical.Cycle_mean ~epsilon g

let minimum_cycle_ratio ?stats ?budget ?(epsilon = 1e-9) ?init ?scratch ?pool
    ?sweep_min_arcs g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?budget ?init ?scratch ?pool ?sweep_min_arcs
    ~problem:Critical.Cycle_ratio ~epsilon g
