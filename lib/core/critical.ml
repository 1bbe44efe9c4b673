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

let scaled_costs g ~den lambda =
  let p = Ratio.num lambda and q = Ratio.den lambda in
  let costs = Array.make (Digraph.m g) 0 in
  for a = 0 to Digraph.m g - 1 do
    costs.(a) <- (q * Digraph.weight g a) - (p * den a)
  done;
  costs

let ratio_of_cycle g ~den cycle =
  let w = Digraph.cycle_weight g cycle in
  let d = List.fold_left (fun s a -> s + den a) 0 cycle in
  Ratio.make w d

type position =
  | Below
  | Optimal of int list
  | Above of int list

(* Finds a cycle (arc ids, path order) within the subgraph formed by the
   arcs selected by [keep], via iterative DFS with an explicit arc
   stack.  Returns None if that subgraph is acyclic. *)
let find_cycle_in_subgraph g keep =
  let n = Digraph.n g in
  let color = Array.make n 0 in        (* 0 white, 1 on stack, 2 done *)
  let stack_pos = Array.make n (-1) in (* node -> depth on current path *)
  let path_arcs = Vec.create () in     (* arcs of the current DFS path *)
  let result = ref None in
  let rec dfs u =
    color.(u) <- 1;
    stack_pos.(u) <- Vec.length path_arcs;
    Digraph.iter_out g u (fun a ->
        if !result = None && keep a then begin
          let v = Digraph.dst g a in
          if color.(v) = 1 then begin
            (* back arc: the cycle is the path suffix from v, plus a *)
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

let cycle_in g keep = find_cycle_in_subgraph g keep

let any_cycle ~who g =
  match find_cycle_in_subgraph g (fun _ -> true) with
  | Some c -> c
  | None -> invalid_arg (who ^ ": input graph is acyclic")

let assert_ratio_well_posed g =
  match find_cycle_in_subgraph g (fun a -> Digraph.transit g a = 0) with
  | Some _ ->
    invalid_arg
      "cost-to-time ratio undefined: the graph has a cycle of zero total \
       transit time"
  | None -> ()

(* One Bellman–Ford over the integer G_λ: [Error cycle] for a negative
   cycle, else [Ok tight], the arcs whose potential inequality is an
   equality (d(dst) = d(src) + cost). *)
let tight_arcs ?on_relax ~den g lambda =
  let costs = scaled_costs g ~den lambda in
  match Bellman_ford.run ?on_relax (Bellman_ford.Int costs) g with
  | Bellman_ford.Negative_cycle c -> Error c
  | Bellman_ford.Feasible d ->
    Ok (fun a -> d.(Digraph.dst g a) = d.(Digraph.src g a) + costs.(a))

let locate ?stats ~den g lambda =
  (match stats with Some s -> s.Stats.oracle_calls <- s.Stats.oracle_calls + 1 | None -> ());
  let on_relax =
    Option.map (fun s () -> s.Stats.relaxations <- s.Stats.relaxations + 1) stats
  in
  match tight_arcs ?on_relax ~den g lambda with
  | Error c -> Above c
  | Ok tight -> (
    match find_cycle_in_subgraph g tight with
    | Some c -> Optimal c
    | None -> Below)

let improve_to_optimal ?stats ~den g cycle =
  if not (Digraph.is_cycle g cycle) then
    invalid_arg "Critical.improve_to_optimal: not a cycle";
  let rec go lambda =
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
  match tight_arcs ~den g lambda with
  | Error _ -> []
  | Ok keep ->
    (* Keep tight arcs, then keep only those inside a nontrivial SCC of
       the tight subgraph: exactly the arcs on some optimum cycle. *)
    let b = Digraph.create_builder (Digraph.n g) in
    let ids = Vec.create () in
    Digraph.iter_arcs g (fun a ->
        if keep a then begin
          ignore
            (Digraph.add_arc b ~src:(Digraph.src g a) ~dst:(Digraph.dst g a)
               ~weight:(Digraph.weight g a) ());
          Vec.push ids a
        end);
    let tight = Digraph.build b in
    let scc = Scc.compute tight in
    let result = ref [] in
    for ta = Digraph.m tight - 1 downto 0 do
      let u = Digraph.src tight ta and v = Digraph.dst tight ta in
      let same = scc.Scc.component.(u) = scc.Scc.component.(v) in
      let cyclic = (not (Scc.is_trivial tight scc scc.Scc.component.(u))) in
      if same && cyclic then result := Vec.get ids ta :: !result
    done;
    !result
