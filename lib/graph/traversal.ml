let bfs_levels g s =
  let n = Digraph.n g in
  let level = Array.make n (-1) in
  let queue = Queue.create () in
  level.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    Digraph.iter_out g u (fun a ->
        let v = Digraph.dst g a in
        if level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v queue
        end)
  done;
  level

let reachable g s =
  let n = Digraph.n g in
  let seen = Array.make n false in
  let stack = Stack.create () in
  seen.(s) <- true;
  Stack.push s stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    Digraph.iter_out g u (fun a ->
        let v = Digraph.dst g a in
        if not seen.(v) then begin
          seen.(v) <- true;
          Stack.push v stack
        end)
  done;
  seen

let co_reachable g s = reachable (Digraph.reverse g) s

let is_strongly_connected g =
  let n = Digraph.n g in
  if n <= 1 then true
  else
    Array.for_all Fun.id (reachable g 0)
    && Array.for_all Fun.id (co_reachable g 0)

let topological_order g =
  let n = Digraph.n g in
  let indeg = Array.make n 0 in
  Digraph.iter_arcs g (fun a ->
      let v = Digraph.dst g a in
      indeg.(v) <- indeg.(v) + 1);
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order.(!k) <- u;
    incr k;
    Digraph.iter_out g u (fun a ->
        let v = Digraph.dst g a in
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
  done;
  if !k = n then Some order else None

let is_acyclic g = topological_order g <> None

let has_cycle_through g v =
  Digraph.fold_out g v (fun acc a -> acc || Digraph.dst g a = v) false
  || Digraph.fold_out g v
       (fun acc a ->
         acc || (Digraph.dst g a <> v && (reachable g (Digraph.dst g a)).(v)))
       false
