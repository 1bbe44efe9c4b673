type problem = Cycle_mean | Cycle_ratio

let den problem g =
  match problem with
  | Cycle_mean -> fun _ -> 1
  | Cycle_ratio -> Digraph.transit g

let lambda_bounds problem g =
  match problem with
  | Cycle_mean -> (Digraph.min_weight g, Digraph.max_weight g)
  | Cycle_ratio ->
    (* with t(C) >= 1 every cycle ratio lies within ±n·max|w| *)
    let maxabs =
      Digraph.fold_arcs g (fun acc a -> max acc (abs (Digraph.weight g a))) 1
    in
    let b = (Digraph.n g * maxabs) + 1 in
    (-b, b)

let real_costs problem g lambda =
  let den = den problem g in
  let costs = Array.create_float (Digraph.m g) in
  for a = 0 to Digraph.m g - 1 do
    costs.(a) <- float_of_int (Digraph.weight g a) -. (lambda *. float_of_int (den a))
  done;
  costs

let scale_into (ws : Probe.t) ~den g lambda =
  let p = Ratio.num lambda and q = Ratio.den lambda in
  let costs = ws.costs and weights = Digraph.Unsafe.weights g in
  for a = 0 to Digraph.m g - 1 do
    costs.{a} <- (q * Bigarray.Array1.unsafe_get weights a) - (p * den a)
  done

let ratio_of_cycle g ~den cycle =
  let w = Digraph.cycle_weight g cycle in
  let d = List.fold_left (fun s a -> s + den a) 0 cycle in
  Ratio.make w d

type position =
  | Below
  | Optimal of int list
  | Above of int list

(* Finds a cycle (arc ids, path order) within the subgraph formed by the
   arcs selected by [keep], via iterative DFS over the workspace's
   frames: a frame is a node and a cursor into the CSR, and the arc
   that entered frame k is the one just behind frame k-1's cursor, so
   the current path needs no stack of its own.  [index.{v}] is -1 for
   an unseen node, -2 for a finished one and the depth of its frame
   while it is on the path.  Roots are tried in node order and arcs in
   CSR order, so the cycle found is the one a recursive DFS finds.
   None if that subgraph is acyclic. *)
let find_cycle_in_subgraph (ws : Probe.t) g keep =
  let n = Digraph.n g in
  let out_start, out_arcs = Digraph.Unsafe.out_csr g in
  let dsts = Digraph.Unsafe.dsts g in
  let index = ws.index and node = ws.frame_node and cursor = ws.frame_cursor in
  for v = 0 to n - 1 do
    index.{v} <- -1
  done;
  let push depth v =
    index.{v} <- depth;
    node.{depth} <- v;
    cursor.{depth} <- out_start.{v}
  in
  let result = ref None in
  let root = ref 0 in
  while Option.is_none !result && !root < n do
    if index.{!root} = -1 then begin
      push 0 !root;
      let depth = ref 1 in
      while Option.is_none !result && !depth > 0 do
        let f = !depth - 1 in
        let u = node.{f} and c = cursor.{f} in
        if c < out_start.{u + 1} then begin
          cursor.{f} <- c + 1;
          let a = out_arcs.{c} in
          if keep a then begin
            let v = dsts.{a} in
            let iv = index.{v} in
            if iv >= 0 then begin
              (* back arc: the cycle is the path from v, plus a *)
              let acc = ref [ a ] in
              for k = f downto iv + 1 do
                acc := out_arcs.{cursor.{k - 1} - 1} :: !acc
              done;
              result := Some !acc
            end
            else if iv = -1 then begin
              push !depth v;
              incr depth
            end
          end
        end
        else begin
          index.{u} <- -2;
          decr depth
        end
      done
    end;
    incr root
  done;
  !result

let cycle_in g keep =
  Probe.borrow ~n:(Digraph.n g) ~m:0 (fun ws -> find_cycle_in_subgraph ws g keep)

let any_cycle ~who g =
  match cycle_in g (fun _ -> true) with
  | Some c -> c
  | None -> invalid_arg (who ^ ": input graph is acyclic")

let assert_ratio_well_posed g =
  match cycle_in g (fun a -> Digraph.transit g a = 0) with
  | Some _ ->
    invalid_arg
      "cost-to-time ratio undefined: the graph has a cycle of zero total \
       transit time"
  | None -> ()

(* One Bellman–Ford over the integer G_λ in the borrowed workspace:
   [Some cycle] for a negative cycle, else [None] with the potentials
   in [ws.dist], where an arc is tight iff its potential inequality is
   an equality (d(dst) = d(src) + cost). *)
let probe ?on_relax (ws : Probe.t) ~den g lambda =
  scale_into ws ~den g lambda;
  Bellman_ford.probe ?on_relax ws g

let tight (ws : Probe.t) g =
  let dist = ws.dist and costs = ws.costs in
  let srcs = Digraph.Unsafe.srcs g and dsts = Digraph.Unsafe.dsts g in
  fun a -> dist.{dsts.{a}} = dist.{srcs.{a}} + costs.{a}

let locate ?stats ~den g lambda =
  (match stats with Some s -> s.Stats.oracle_calls <- s.Stats.oracle_calls + 1 | None -> ());
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  Probe.borrow ~n:(Digraph.n g) ~m:(Digraph.m g) (fun ws ->
      match probe ?on_relax ws ~den g lambda with
      | Some c -> Above c
      | None -> (
        match find_cycle_in_subgraph ws g (tight ws g) with
        | Some c -> Optimal c
        | None -> Below))

let improve_to_optimal ?stats ?budget ~den g cycle =
  if not (Digraph.is_cycle g cycle) then
    invalid_arg "Critical.improve_to_optimal: not a cycle";
  let rec go lambda =
    Option.iter Budget.tick budget;
    match locate ?stats ~den g lambda with
    | Optimal w -> (lambda, w)
    | Above better ->
      let lambda' = ratio_of_cycle g ~den better in
      assert (Ratio.lt lambda' lambda);
      go lambda'
    | Below ->
      (* impossible: lambda is the ratio of a genuine cycle *)
      assert false
  in
  go (ratio_of_cycle g ~den cycle)

let critical_arcs ~den g lambda =
  (* Keep tight arcs, then keep only those inside a nontrivial SCC of
     the tight subgraph: exactly the arcs on some optimum cycle. *)
  let tight_subgraph =
    Probe.borrow ~n:(Digraph.n g) ~m:(Digraph.m g) (fun ws ->
        match probe ws ~den g lambda with
        | Some _ -> None
        | None ->
          let keep = tight ws g in
          let b = Digraph.create_builder (Digraph.n g) in
          let ids = Vec.create () in
          Digraph.iter_arcs g (fun a ->
              if keep a then begin
                ignore
                  (Digraph.add_arc b ~src:(Digraph.src g a) ~dst:(Digraph.dst g a)
                     ~weight:(Digraph.weight g a) ());
                Vec.push ids a
              end);
          Some (Digraph.build b, ids))
  in
  match tight_subgraph with
  | None -> []
  | Some (tight, ids) ->
    let scc = Scc.compute tight in
    let result = ref [] in
    for ta = Digraph.m tight - 1 downto 0 do
      let u = Digraph.src tight ta and v = Digraph.dst tight ta in
      let same = scc.Scc.component.(u) = scc.Scc.component.(v) in
      let cyclic = (not (Scc.is_trivial tight scc scc.Scc.component.(u))) in
      if same && cyclic then result := Vec.get ids ta :: !result
    done;
    !result
