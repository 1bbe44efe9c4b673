(* Longest path, counted in arcs, starting at each node inside the DAG
   of tight arcs: xi(u) = max over tight (u,v) of 1 + xi(v).  Kahn
   topological order over the tight subgraph, processed in reverse. *)
let xi_of_tight g tight =
  let n = Digraph.n g in
  let indeg = Array.make n 0 in
  Digraph.iter_arcs g (fun a ->
      if tight a then indeg.(Digraph.dst g a) <- indeg.(Digraph.dst g a) + 1);
  let order = Array.make n (-1) in
  let k = ref 0 in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order.(!k) <- u;
    incr k;
    Digraph.iter_out g u (fun a ->
        if tight a then begin
          let v = Digraph.dst g a in
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue
        end)
  done;
  assert (!k = n) (* the caller guarantees the tight subgraph is acyclic *);
  let xi = Array.make n 0 in
  for i = n - 1 downto 0 do
    let u = order.(i) in
    Digraph.iter_out g u (fun a ->
        if tight a then xi.(u) <- max xi.(u) (1 + xi.(Digraph.dst g a)))
  done;
  xi

let solve ?stats ~problem ~epsilon g =
  if Digraph.m g = 0 then invalid_arg "Burns: graph has no arcs";
  let n = Digraph.n g in
  let den = Critical.den problem g in
  let maxabs =
    Digraph.fold_arcs g (fun acc a -> max acc (abs (Digraph.weight g a))) 1
  in
  let tol = epsilon *. float_of_int maxabs in
  (* start from the a-priori lower bound: every cycle's value is at
     least λ0, so G_λ0 has feasible potentials *)
  let lambda0 = float_of_int (fst (Critical.lambda_bounds problem g)) in
  let d =
    match
      Bellman_ford.run (Bellman_ford.Float (Critical.real_costs problem g lambda0)) g
    with
    | Bellman_ford.Feasible pot -> pot
    | Bellman_ford.Negative_cycle _ -> assert false
  in
  let lambda = ref lambda0 in
  let cap = (4 * n) + 64 in
  let iter = ref 0 in
  let result = ref None in
  while !result = None && !iter < cap do
    incr iter;
    (match stats with
    | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
    | None -> ());
    let slack = Critical.real_costs problem g !lambda in
    Digraph.iter_arcs g (fun a ->
        slack.(a) <- slack.(a) +. d.(Digraph.src g a) -. d.(Digraph.dst g a));
    let tight a = slack.(a) <= tol in
    match Critical.cycle_in g tight with
    | Some c -> result := Some c
    | None ->
      let xi = xi_of_tight g tight in
      (* θ = min over arcs with ξ(v)+1 > ξ(u) of slack / (ξ(v)+1−ξ(u));
         tight arcs satisfy ξ(u) ≥ ξ(v)+1 and are excluded automatically *)
      let theta = ref infinity in
      Digraph.iter_arcs g (fun a ->
          let coeff =
            xi.(Digraph.dst g a) + 1 - xi.(Digraph.src g a)
          in
          if coeff > 0 then begin
            let t = slack.(a) /. float_of_int coeff in
            if t < !theta then theta := t
          end);
      if !theta = infinity || !theta <= 0.0 then
        (* no useful step (numerically stuck): bail out to the exact
           finisher from any cycle *)
        result := Some (Critical.any_cycle ~who:"Burns" g)
      else begin
        lambda := !lambda +. !theta;
        for v = 0 to n - 1 do
          d.(v) <- d.(v) +. (!theta *. float_of_int xi.(v))
        done
      end
  done;
  let cycle =
    match !result with
    | Some c -> c
    | None -> Critical.any_cycle ~who:"Burns" g
  in
  Critical.improve_to_optimal ?stats ~den g cycle

let minimum_cycle_mean ?stats ?(epsilon = 1e-9) g =
  solve ?stats ~problem:Critical.Cycle_mean ~epsilon g

let minimum_cycle_ratio ?stats ?(epsilon = 1e-9) g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ~problem:Critical.Cycle_ratio ~epsilon g
