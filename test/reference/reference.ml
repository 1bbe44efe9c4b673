(* Reference implementations kept as oracles for the property tests
   and the E20 bench row.  They are the straightforward versions the
   library replaced, kept verbatim apart from the two count hooks:

   - the line-splitting text parsers (String.trim, split_on_char and
     int_of_string_opt on every line, arcs pushed through a
     Digraph builder), one near-copy per format;
   - Tarjan's algorithm over a per-node successor copy with a
     (node, cursor ref) frame per DFS step;
   - the integer and the float Bellman–Ford engines (see below);
   - the chained fingerprint: two lanes absorbing every arc's four
     fields in arc-id order, four SplitMix64 finalizers per lane per
     arc;
   - the exact probe and its users as they were before the probe
     workspace: fresh arrays per call (see below).

   [of_string]/[of_dimacs] take two optional hooks so a test can layer
   the count rules on top: [on_problem lineno n m] runs once the
   problem line parsed, [on_arc lineno] after each arc was added. *)

let fail lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

let of_string ?(on_problem = fun _ _ _ -> ()) ?(on_arc = fun _ -> ()) s =
  let builder = ref None in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line = String.trim line in
    if line <> "" && line.[0] <> '#' then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; "ocr"; sn; sm ] -> (
        if !builder <> None then fail !lineno "duplicate problem line";
        match (int_of_string_opt sn, int_of_string_opt sm) with
        | Some n, Some m when n >= 0 ->
          on_problem !lineno n m;
          builder := Some (Digraph.create_builder n)
        | _ -> fail !lineno "malformed problem line")
      | "a" :: rest -> (
        let b =
          match !builder with
          | Some b -> b
          | None -> fail !lineno "arc before problem line"
        in
        let ints = List.map int_of_string_opt rest in
        match ints with
        | [ Some u; Some v; Some w ] -> (
          (try ignore (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | [ Some u; Some v; Some w; Some t ] -> (
          (try
             ignore
               (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w
                  ~transit:t ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | _ -> fail !lineno "malformed arc line")
      | tok :: _ -> fail !lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  match !builder with
  | Some b -> Digraph.build b
  | None -> failwith "Graph_io: missing problem line"

let of_dimacs ?(on_problem = fun _ _ _ -> ()) ?(on_arc = fun _ -> ()) s =
  let builder = ref None in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line = String.trim line in
    if line <> "" && line.[0] <> 'c' then
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "p"; "sp"; sn; sm ] -> (
        if !builder <> None then fail !lineno "duplicate problem line";
        match (int_of_string_opt sn, int_of_string_opt sm) with
        | Some n, Some m when n >= 0 ->
          on_problem !lineno n m;
          builder := Some (Digraph.create_builder n)
        | _ -> fail !lineno "malformed problem line")
      | [ "a"; su; sv; sw ] -> (
        let b =
          match !builder with
          | Some b -> b
          | None -> fail !lineno "arc before problem line"
        in
        match (int_of_string_opt su, int_of_string_opt sv, int_of_string_opt sw) with
        | Some u, Some v, Some w -> (
          (try ignore (Digraph.add_arc b ~src:(u - 1) ~dst:(v - 1) ~weight:w ())
           with Invalid_argument m -> fail !lineno m);
          on_arc !lineno)
        | _ -> fail !lineno "malformed arc line")
      | tok :: _ -> fail !lineno (Printf.sprintf "unknown record %S" tok)
      | [] -> ()
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  match !builder with
  | Some b -> Digraph.build b
  | None -> failwith "Graph_io: missing problem line"

(* The count rules Graph_io enforces, expressed over the hooks: a
   declared arc count that is negative or exceeds what the input could
   hold is a malformed problem line, then a node count past
   [Graph_io.max_nodes] fails before the builder is made; an arc past
   the declared count fails at its line, and a short input fails at
   the end. *)
let with_count_rule parse s =
  let declared = ref 0 and found = ref 0 in
  let on_problem lineno n m =
    if m < 0 || m > String.length s / 7 then
      fail lineno "malformed problem line";
    if n > Graph_io.max_nodes then
      fail lineno
        (Printf.sprintf "%d nodes exceed the limit of %d" n Graph_io.max_nodes);
    declared := m
  in
  let on_arc lineno =
    if !found = !declared then
      fail lineno (Printf.sprintf "more arcs than the %d declared" !declared);
    incr found
  in
  let g = parse ~on_problem ~on_arc s in
  if !found < !declared then
    failwith
      (Printf.sprintf "Graph_io: problem line declares %d arcs, found %d"
         !declared !found);
  g

let counted_of_string = with_count_rule (fun ~on_problem ~on_arc s ->
    of_string ~on_problem ~on_arc s)

let counted_of_dimacs = with_count_rule (fun ~on_problem ~on_arc s ->
    of_dimacs ~on_problem ~on_arc s)

(* Iterative Tarjan.  For each node we keep the classic index/lowlink
   pair; the explicit stack stores (node, next-out-arc-position) frames. *)
let scc_components g =
  let n = Digraph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  let tarjan_stack = Vec.create () in
  let next_index = ref 0 in
  let comp_count = ref 0 in
  (* Materialized successor arrays give O(1) cursor access per frame. *)
  let out_adj = Array.make n [||] in
  for u = 0 to n - 1 do
    let acc = Vec.create () in
    Digraph.iter_out g u (fun a -> Vec.push acc (Digraph.dst g a));
    out_adj.(u) <- Vec.to_array acc
  done;
  let frames = Vec.create () in
  let start root =
    Vec.push frames (root, ref 0);
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Vec.push tarjan_stack root;
    on_stack.(root) <- true;
    while not (Vec.is_empty frames) do
      let u, cursor = Vec.get frames (Vec.length frames - 1) in
      let succs = out_adj.(u) in
      if !cursor < Array.length succs then begin
        let v = succs.(!cursor) in
        incr cursor;
        if index.(v) < 0 then begin
          index.(v) <- !next_index;
          lowlink.(v) <- !next_index;
          incr next_index;
          Vec.push tarjan_stack v;
          on_stack.(v) <- true;
          Vec.push frames (v, ref 0)
        end
        else if on_stack.(v) then
          lowlink.(u) <- min lowlink.(u) index.(v)
      end
      else begin
        ignore (Vec.pop frames);
        if lowlink.(u) = index.(u) then begin
          (* u is the root of a component: pop it off the Tarjan stack *)
          let continue = ref true in
          while !continue do
            let w = Vec.pop tarjan_stack in
            on_stack.(w) <- false;
            component.(w) <- !comp_count;
            if w = u then continue := false
          done;
          incr comp_count
        end;
        if not (Vec.is_empty frames) then begin
          let p, _ = Vec.get frames (Vec.length frames - 1) in
          lowlink.(p) <- min lowlink.(p) lowlink.(u)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then start v
  done;
  (!comp_count, component)

(* The predecessor-graph search of the Bellman–Ford driver before the
   probe workspace, over an epoch-stamped mark array of its own: a
   node is unseen by a search iff its mark is at most the stamp the
   search started from.  The engines below call it with a fresh array
   per search, [bf_run_int] with one per run. *)
type pred_search = { mark : int array; mutable stamp : int }

let pred_search n = { mark = Array.make n 0; stamp = 0 }

let find_pred_cycle ps g pred_arc =
  let n = Digraph.n g in
  let mark = ps.mark in
  let base = ps.stamp in
  let result = ref None in
  let v = ref 0 in
  while Option.is_none !result && !v < n do
    if mark.(!v) <= base then begin
      ps.stamp <- ps.stamp + 1;
      let walk = ps.stamp in
      let x = ref !v in
      let continue = ref true in
      while !continue do
        let mx = mark.(!x) in
        if pred_arc.(!x) < 0 || (mx > base && mx < walk) then
          continue := false
        else if mx = walk then begin
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

(* The two Bellman–Ford engines the single GADT-typed
   [Bellman_ford.run] replaced, kept as oracles for its property test:
   the integer FIFO engine over a ring queue (with the [sources]
   parameter of its single-source mode) and the float engine over a
   boxed [Queue] with a per-arc cost closure.  Verbatim apart from the
   dropped trace spans.  [bf_engine] returns [Ok (dist, pred_arc)] or
   [Error cycle]; [bf_engine_float] returns [Ok dist] or [Error cycle]. *)

let bf_engine ?on_relax ~costs g ~sources =
  let n = Digraph.n g in
  let dist = Array.make n max_int in
  let pred_arc = Array.make n (-1) in
  let times_updated = Array.make n 0 in
  let in_queue = Array.make n false in
  (* FIFO over a preallocated ring: the [in_queue] guard keeps at most
     n nodes queued, so capacity n+1 never wraps onto itself.  Same
     relaxation order as the boxed Queue it replaces, none of the
     per-enqueue allocation — this engine is the inner loop of the
     exact finisher, hit once per candidate λ. *)
  let ring = Array.make (n + 1) 0 in
  let head = ref 0 and tail = ref 0 in
  let enqueue v =
    if not in_queue.(v) then begin
      in_queue.(v) <- true;
      ring.(!tail) <- v;
      tail := if !tail = n then 0 else !tail + 1
    end
  in
  (match sources with
  | None ->
    for v = 0 to n - 1 do
      dist.(v) <- 0;
      enqueue v
    done
  | Some vs ->
    List.iter
      (fun v ->
        dist.(v) <- 0;
        enqueue v)
      vs);
  (* The scan below walks the raw CSR Bigarrays rather than going
     through [Digraph.iter_out]: this loop visits every out-arc of
     every popped node, and the per-pop closure plus per-arc accessor
     calls are measurable against the handful of loads it actually
     needs.  All indices come from the graph's own CSR, so unsafe
     reads are in bounds by construction. *)
  let out_start, out_arcs = Digraph.Unsafe.out_csr g in
  let arc_dst = Digraph.Unsafe.dsts g in
  let found = ref None in
  while !found = None && !head <> !tail do
    let u = ring.(!head) in
    head := (if !head = n then 0 else !head + 1);
    in_queue.(u) <- false;
    let du = dist.(u) in
    if du < max_int then begin
      let hi = Bigarray.Array1.unsafe_get out_start (u + 1) in
      let i = ref (Bigarray.Array1.unsafe_get out_start u) in
      while !found = None && !i < hi do
        let a = Bigarray.Array1.unsafe_get out_arcs !i in
        incr i;
        let v = Bigarray.Array1.unsafe_get arc_dst a in
        let cand = du + Array.unsafe_get costs a in
        if cand < dist.(v) then begin
          (match on_relax with Some f -> f () | None -> ());
          dist.(v) <- cand;
          pred_arc.(v) <- a;
          times_updated.(v) <- times_updated.(v) + 1;
          if times_updated.(v) > n then begin
            times_updated.(v) <- 0;
            match cycle_in_pred_graph g pred_arc with
            | Some cycle -> found := Some cycle
            | None -> enqueue v
          end
          else enqueue v
        end
      done
    end
  done;
  match !found with
  | Some cycle -> Error cycle
  | None -> Ok (dist, pred_arc)

let bf_engine_float ?on_relax ~cost g =
  let n = Digraph.n g in
  let dist = Array.make n 0.0 in
  let pred_arc = Array.make n (-1) in
  let times_updated = Array.make n 0 in
  let in_queue = Array.make n true in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    Queue.add v queue
  done;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let u = Queue.take queue in
    in_queue.(u) <- false;
    Digraph.iter_out g u (fun a ->
        if !found = None then begin
          let v = Digraph.dst g a in
          let cand = dist.(u) +. cost a in
          if cand < dist.(v) then begin
            (match on_relax with Some f -> f () | None -> ());
            dist.(v) <- cand;
            pred_arc.(v) <- a;
            times_updated.(v) <- times_updated.(v) + 1;
            let enqueue () =
              if not in_queue.(v) then begin
                in_queue.(v) <- true;
                Queue.add v queue
              end
            in
            if times_updated.(v) > n then begin
              times_updated.(v) <- 0;
              match cycle_in_pred_graph g pred_arc with
              | Some cycle -> found := Some cycle
              | None -> enqueue ()
            end
            else enqueue ()
          end
        end)
  done;
  match !found with
  | Some cycle -> Error cycle
  | None -> Ok dist

(* The chained fingerprint the per-arc sum replaced, verbatim apart
   from the result type (a pair of lanes, [(lo, hi)]), kept as the
   E20 fingerprint rows' reference timing. *)
let golden = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer (Steele, Lea & Flood) — same mixer as Rng. *)
let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let absorb st x = mix (Int64.add (Int64.add st golden) (Int64.of_int x))

let fingerprint g =
  let n = Digraph.n g and m = Digraph.m g in
  (* two independently seeded lanes absorbing the same structural
     stream give a 128-bit state *)
  let lo = ref (absorb (absorb 0L n) m) in
  let hi = ref (absorb (absorb 0x6A09E667F3BCC909L m) n) in
  for a = 0 to m - 1 do
    let s = Digraph.src g a and d = Digraph.dst g a in
    let w = Digraph.weight g a and t = Digraph.transit g a in
    lo := absorb (absorb (absorb (absorb !lo s) d) w) t;
    hi := absorb (absorb (absorb (absorb !hi t) w) d) s
  done;
  (!lo, !hi)

(* The exact probe before the probe workspace: [Critical.locate] with
   its fresh cost array, recursive tight-cycle DFS and the [Int] half
   of the Bellman–Ford driver over fresh OCaml arrays; Newton's descent
   and [Verify]'s full probe on top of it.  Verbatim apart from the
   dropped trace spans and budget, kept as the oracles of the
   stale-workspace property (test_critical) and E23's reference row.
   Nothing here touches the domain's [Probe] workspace. *)

type bf_state = {
  g : Digraph.t;
  n : int;
  out_start : Digraph.int_array1;
  out_arcs : Digraph.int_array1;
  arc_dst : Digraph.int_array1;
  on_relax : (unit -> unit) option;
  pred_arc : int array;
  times_updated : int array;
  in_queue : bool array;
  ring : int array;
  mutable head : int;
  mutable tail : int;
  search_every : int;
  mutable since_search : int;
  ps : pred_search;
  mutable found : int list option;
}

let enqueue st v =
  if not st.in_queue.(v) then begin
    st.in_queue.(v) <- true;
    st.ring.(st.tail) <- v;
    st.tail <- (if st.tail = st.n then 0 else st.tail + 1)
  end

let pop st =
  let u = st.ring.(st.head) in
  st.head <- (if st.head = st.n then 0 else st.head + 1);
  st.in_queue.(u) <- false;
  u

let relaxed st v a =
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

let bf_run_int ?on_relax (costs : int array) g : int Bellman_ford.outcome =
  if Array.length costs <> Digraph.m g then
    invalid_arg "Bellman_ford.run: costs length <> arc count";
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
      search_every = n;
      since_search = 0;
      ps = pred_search n;
      found = None;
    }
  in
  for v = 0 to n - 1 do
    enqueue st v
  done;
  let dist = Array.make n 0 in
  drain_int st costs dist;
  match st.found with
  | Some cycle -> Bellman_ford.Negative_cycle cycle
  | None -> Bellman_ford.Feasible dist

let scaled_costs g ~den lambda =
  let p = Ratio.num lambda and q = Ratio.den lambda in
  let costs = Array.make (Digraph.m g) 0 in
  for a = 0 to Digraph.m g - 1 do
    costs.(a) <- (q * Digraph.weight g a) - (p * den a)
  done;
  costs

let find_cycle_in_subgraph g keep =
  let n = Digraph.n g in
  let color = Array.make n 0 in
  let stack_pos = Array.make n (-1) in
  let path_arcs = Vec.create () in
  let result = ref None in
  let rec dfs u =
    color.(u) <- 1;
    stack_pos.(u) <- Vec.length path_arcs;
    Digraph.iter_out g u (fun a ->
        if !result = None && keep a then begin
          let v = Digraph.dst g a in
          if color.(v) = 1 then begin
            let acc = ref [ a ] in
            for i = Vec.length path_arcs - 1 downto stack_pos.(v) do
              acc := Vec.get path_arcs i :: !acc
            done;
            result := Some !acc
          end
          else if color.(v) = 0 then begin
            Vec.push path_arcs a;
            dfs v;
            if !result = None then ignore (Vec.pop path_arcs)
          end
        end);
    if !result = None then begin
      color.(u) <- 2;
      stack_pos.(u) <- -1
    end
  in
  let u = ref 0 in
  while !result = None && !u < n do
    if color.(!u) = 0 then dfs !u;
    incr u
  done;
  !result

let tight_arcs ?on_relax ~den g lambda =
  let costs = scaled_costs g ~den lambda in
  match bf_run_int ?on_relax costs g with
  | Bellman_ford.Negative_cycle c -> Error c
  | Bellman_ford.Feasible d ->
    Ok (fun a -> d.(Digraph.dst g a) = d.(Digraph.src g a) + costs.(a))

let locate ?stats ~den g lambda =
  (match stats with Some s -> s.Stats.oracle_calls <- s.Stats.oracle_calls + 1 | None -> ());
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  match tight_arcs ?on_relax ~den g lambda with
  | Error c -> Critical.Above c
  | Ok tight -> (
    match find_cycle_in_subgraph g tight with
    | Some c -> Critical.Optimal c
    | None -> Critical.Below)

let improve_to_optimal ?stats ~den g cycle =
  let rec go lambda =
    match locate ?stats ~den g lambda with
    | Critical.Optimal w -> (lambda, w)
    | Critical.Above better ->
      let lambda' = Critical.ratio_of_cycle g ~den better in
      assert (Ratio.lt lambda' lambda);
      go lambda'
    | Critical.Below -> assert false
  in
  go (Critical.ratio_of_cycle g ~den cycle)

let policy_cycle ?stats ~den g =
  let n = Digraph.n g in
  let pi = Array.make n (-1) in
  for a = 0 to Digraph.m g - 1 do
    let u = Digraph.src g a in
    if pi.(u) < 0 || Digraph.weight g a < Digraph.weight g pi.(u) then
      pi.(u) <- a
  done;
  let next x = Digraph.dst g pi.(x) in
  let color = Array.make n 0 in
  let best_num = ref 0 and best_den = ref 0 and best_entry = ref (-1) in
  for start = 0 to n - 1 do
    let x = ref start in
    while color.(!x) = 0 && pi.(!x) >= 0 do
      color.(!x) <- 1;
      x := next !x
    done;
    if color.(!x) = 1 then begin
      (match stats with
      | Some s -> s.Stats.cycles_examined <- s.Stats.cycles_examined + 1
      | None -> ());
      let num = ref 0 and dn = ref 0 and y = ref !x in
      let continue = ref true in
      while !continue do
        let a = pi.(!y) in
        num := !num + Digraph.weight g a;
        dn := !dn + den a;
        y := Digraph.dst g a;
        continue := !y <> !x
      done;
      if !best_den = 0 || !num * !best_den < !best_num * !dn then begin
        best_num := !num;
        best_den := !dn;
        best_entry := !x
      end
    end;
    let y = ref start in
    while color.(!y) = 1 do
      color.(!y) <- 2;
      y := next !y
    done
  done;
  if !best_entry < 0 then None
  else begin
    let arcs = ref [] and y = ref !best_entry in
    let continue = ref true in
    while !continue do
      arcs := pi.(!y) :: !arcs;
      y := next !y;
      continue := !y <> !best_entry
    done;
    Some (List.rev !arcs)
  end

(* [Newton.descent] on a well-posed input with at least one arc *)
let descent ?stats ~problem g =
  let den = Critical.den problem g in
  let calls () = match stats with Some s -> s.Stats.oracle_calls | None -> 0 in
  let calls0 = calls () in
  let start =
    match policy_cycle ?stats ~den g with
    | Some c -> c
    | None -> Option.get (find_cycle_in_subgraph g (fun _ -> true))
  in
  let answer = improve_to_optimal ?stats ~den g start in
  (match stats with
  | Some s -> s.Stats.iterations <- s.Stats.iterations + calls () - calls0
  | None -> ());
  answer

(* [Verify.certify_with]'s full probe: the potentials of G_λ* (costs
   negated for maximization), or the better cycle it found *)
let certify_probe ~objective ~problem g lambda =
  let den = Critical.den problem g in
  let costs = scaled_costs g ~den lambda in
  if objective = Solver.Maximize then Array.map_inplace (fun c -> -c) costs;
  bf_run_int costs g
