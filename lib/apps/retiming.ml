type block = int

type wire = { src : block; dst : block; mutable registers : int }

type t = {
  names : string Vec.t;
  delays : int Vec.t;
  wires : wire Vec.t;
}

let create () =
  { names = Vec.create (); delays = Vec.create (); wires = Vec.create () }

let add_block t ~name ~delay =
  if delay < 0 then invalid_arg "Retiming.add_block: negative delay";
  let id = Vec.length t.names in
  Vec.push t.names name;
  Vec.push t.delays delay;
  id

let check_block t v name =
  if v < 0 || v >= Vec.length t.names then
    invalid_arg ("Retiming." ^ name ^ ": unknown block")

let add_wire t ?(registers = 0) u v =
  check_block t u "add_wire";
  check_block t v "add_wire";
  if registers < 0 then invalid_arg "Retiming.add_wire: negative register count";
  Vec.push t.wires { src = u; dst = v; registers }

let block_count t = Vec.length t.names
let blocks t = Array.init (block_count t) Fun.id

let block_name t v =
  check_block t v "block_name";
  Vec.get t.names v

let block_delay t v =
  check_block t v "block_delay";
  Vec.get t.delays v

let to_graph t =
  let b = Digraph.create_builder (block_count t) in
  Vec.iter
    (fun w ->
      ignore
        (Digraph.add_arc b ~src:w.src ~dst:w.dst
           ~weight:(Vec.get t.delays w.src) ~transit:w.registers ()))
    t.wires;
  Digraph.build b

let period_lower_bound ?(algorithm = Registry.Howard) t =
  let g = to_graph t in
  match
    Solver.solve ~objective:Solver.Maximize ~problem:Solver.Cycle_ratio
      ~algorithm g
  with
  | None -> None
  | Some r -> Some r.Solver.lambda

(* Longest register-free path, each path weighted by the delays of all
   blocks on it (endpoints included). *)
let clock_period t =
  let n = block_count t in
  let g = to_graph t in
  let zero_free a = Digraph.transit g a = 0 in
  (* topological order of the register-free subgraph *)
  let indeg = Array.make n 0 in
  Digraph.iter_arcs g (fun a ->
      if zero_free a then indeg.(Digraph.dst g a) <- indeg.(Digraph.dst g a) + 1);
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  let acc = Array.init n (Vec.get t.delays) in
  let period = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    incr seen;
    period := max !period acc.(u);
    Digraph.iter_out g u (fun a ->
        if zero_free a then begin
          let v = Digraph.dst g a in
          acc.(v) <- max acc.(v) (acc.(u) + Vec.get t.delays v);
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue
        end)
  done;
  if !seen < n then
    invalid_arg "Retiming.clock_period: register-free cycle (combinational loop)";
  !period

(* The Leiserson-Saxe W and D matrices: W(u,v) = minimum registers over
   u~>v paths, D(u,v) = maximum path delay among those minimum-register
   paths.  Lexicographic Floyd-Warshall on (registers, -delay). *)
let wd_matrices t =
  let n = block_count t in
  let inf = max_int / 4 in
  let w = Array.make_matrix n n inf in
  let d = Array.make_matrix n n min_int in
  for u = 0 to n - 1 do
    w.(u).(u) <- 0;
    d.(u).(u) <- Vec.get t.delays u
  done;
  Vec.iter
    (fun e ->
      let du = Vec.get t.delays e.src + Vec.get t.delays e.dst in
      if
        e.registers < w.(e.src).(e.dst)
        || (e.registers = w.(e.src).(e.dst) && du > d.(e.src).(e.dst))
      then begin
        w.(e.src).(e.dst) <- e.registers;
        d.(e.src).(e.dst) <- du
      end)
    t.wires;
  for k = 0 to n - 1 do
    for u = 0 to n - 1 do
      if w.(u).(k) < inf then
        for v = 0 to n - 1 do
          if w.(k).(v) < inf then begin
            let wr = w.(u).(k) + w.(k).(v) in
            (* block k counted once on the concatenation *)
            let dr = d.(u).(k) + d.(k).(v) - Vec.get t.delays k in
            if wr < w.(u).(v) || (wr = w.(u).(v) && dr > d.(u).(v)) then begin
              w.(u).(v) <- wr;
              d.(u).(v) <- dr
            end
          end
        done
    done
  done;
  (w, d)

(* Feasibility of clock period [c]: difference constraints solved by
   Bellman-Ford on the constraint graph; Some r on success. *)
let feasible_retiming t (w, d) c =
  let n = block_count t in
  let inf = max_int / 4 in
  let b = Digraph.create_builder n in
  (* r(u) - r(v) <= w(e): arc v -> u with cost w(e) *)
  Vec.iter
    (fun e ->
      ignore (Digraph.add_arc b ~src:e.dst ~dst:e.src ~weight:e.registers ()))
    t.wires;
  (* r(u) - r(v) <= W(u,v) - 1 whenever D(u,v) > c.  The diagonal is
     kept: D(u,u) = d(u) > c yields the self-constraint 0 <= W(u,u) - 1,
     i.e. a negative self-loop when no retiming can help, which is how
     "the period can never beat the largest block delay" is encoded. *)
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if w.(u).(v) < inf && d.(u).(v) > c then
        ignore (Digraph.add_arc b ~src:v ~dst:u ~weight:(w.(u).(v) - 1) ())
    done
  done;
  let cg = Digraph.build b in
  match
    Bellman_ford.run (Bellman_ford.Int (Array.init (Digraph.m cg) (Digraph.weight cg))) cg
  with
  | Bellman_ford.Feasible d -> Some d
  | Bellman_ford.Negative_cycle _ -> None

let min_period t =
  (* validates the absence of combinational loops *)
  let current = clock_period t in
  let n = block_count t in
  let wd = wd_matrices t in
  let w, d = wd in
  let inf = max_int / 4 in
  (* candidate periods: the distinct D values (the optimum is one) *)
  let candidates =
    let acc = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if d.(u).(v) > min_int && d.(u).(v) <= current then
          acc := d.(u).(v) :: !acc
      done
    done;
    List.sort_uniq compare !acc
  in
  let arr = Array.of_list candidates in
  if Array.length arr = 0 then (current, Array.make n 0)
  else begin
    (* The probes of the binary search test constraint graphs that
       differ only in which pair arcs "D(u,v) > c" are present, so they
       share one dynamic session instead of rebuilding per candidate:
       every pair arc stays in the graph permanently and toggles
       between its real cost W(u,v) - 1 and a sentinel.  Feasibility of
       period c is "no negative cycle", i.e. the session's minimum
       cycle mean is >= 0 (or the graph is acyclic), re-solved warm
       from the previous probe over just the components the toggles
       dirtied.  Pair costs are >= -1 and wire costs >= 0, so no simple
       cycle through an arc of cost n + 1 can be negative: the sentinel
       parks a pair without taking it out of the graph. *)
    let pairs = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if w.(u).(v) < inf && d.(u).(v) > min_int then
          pairs := (d.(u).(v), u, v) :: !pairs
      done
    done;
    let pairs = Array.of_list !pairs in
    (* sorted by D descending: the active set of any period is a prefix *)
    Array.sort (fun (d1, _, _) (d2, _, _) -> compare d2 d1) pairs;
    let sentinel = n + 1 in
    let b = Digraph.create_builder n in
    Vec.iter
      (fun e ->
        ignore (Digraph.add_arc b ~src:e.dst ~dst:e.src ~weight:e.registers ()))
      t.wires;
    let pair_arc =
      Array.map
        (fun (_, u, v) -> Digraph.add_arc b ~src:v ~dst:u ~weight:sentinel ())
        pairs
    in
    let session = Dyn.create (Digraph.build b) in
    let active = ref 0 in
    let set_active k =
      while !active < k do
        let _, u, v = pairs.(!active) in
        Dyn.set_weight session pair_arc.(!active) (w.(u).(v) - 1);
        incr active
      done;
      while !active > k do
        decr active;
        Dyn.set_weight session pair_arc.(!active) sentinel
      done
    in
    (* pairs with D > c, i.e. the length of the active prefix *)
    let count_active c =
      let lo = ref 0 and hi = ref (Array.length pairs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        let dm, _, _ = pairs.(mid) in
        if dm > c then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    let feasible c =
      set_active (count_active c);
      match Dyn.query session with
      | None -> true
      | Some r -> Ratio.leq Ratio.zero r.Dyn.lambda
    in
    (* binary search the smallest feasible candidate *)
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    let best = ref current in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible arr.(mid) then begin
        best := arr.(mid);
        hi := mid - 1
      end
      else lo := mid + 1
    done;
    Dyn.close session;
    (* one Bellman-Ford at the chosen period extracts the labels *)
    match feasible_retiming t wd !best with
    | Some r -> (!best, r)
    | None -> (current, Array.make n 0)
  end

let retime t r =
  if Array.length r <> block_count t then
    invalid_arg "Retiming.retime: wrong label count";
  let t' = create () in
  for v = 0 to block_count t - 1 do
    ignore (add_block t' ~name:(Vec.get t.names v) ~delay:(Vec.get t.delays v))
  done;
  Vec.iter
    (fun e ->
      let registers = e.registers + r.(e.dst) - r.(e.src) in
      if registers < 0 then
        invalid_arg "Retiming.retime: labels make a register count negative";
      add_wire t' ~registers e.src e.dst)
    t.wires;
  t'
