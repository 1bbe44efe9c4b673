type variant = [ `Ko | `Yto ]
type heap_kind = [ `Fibonacci | `Binary | `Pairing ]

(* ------------------------------------------------------------------ *)
(* pluggable heaps over (element:int, key:Ratio.t)                     *)
(* ------------------------------------------------------------------ *)

(* The engine needs two flavours of key maintenance, matching the two
   published variants: [replace] is KO's delete-then-insert, [update]
   is YTO's decrease-key-when-possible.  [extract_min] detaches the
   element, after which it is absent until re-set. *)
module type KEY_HEAP = sig
  type t

  val create : ?stats:Heap_stats.t -> capacity:int -> unit -> t
  val is_empty : t -> bool
  val extract_min : t -> Ratio.t * int
  val replace : t -> int -> Ratio.t option -> unit
  val update : t -> int -> Ratio.t option -> unit
end

module Fib_heap : KEY_HEAP = struct
  type t = {
    heap : (Ratio.t, int) Fibonacci_heap.t;
    handle : (Ratio.t, int) Fibonacci_heap.node option array;
  }

  let create ?stats ~capacity () =
    {
      heap = Fibonacci_heap.create ?stats ~cmp:Ratio.compare ();
      handle = Array.make (max capacity 1) None;
    }

  let is_empty t = Fibonacci_heap.is_empty t.heap

  let extract_min t =
    let k, e = Fibonacci_heap.extract_min t.heap in
    t.handle.(e) <- None;
    (k, e)

  let remove t e =
    match t.handle.(e) with
    | Some h ->
      Fibonacci_heap.delete t.heap h;
      t.handle.(e) <- None
    | None -> ()

  let replace t e key =
    remove t e;
    match key with
    | Some k -> t.handle.(e) <- Some (Fibonacci_heap.insert t.heap k e)
    | None -> ()

  let update t e key =
    match (t.handle.(e), key) with
    | None, Some k -> t.handle.(e) <- Some (Fibonacci_heap.insert t.heap k e)
    | None, None -> ()
    | Some _, None -> remove t e
    | Some h, Some k ->
      let c = Ratio.compare k (Fibonacci_heap.node_key h) in
      if c < 0 then Fibonacci_heap.decrease_key t.heap h k
      else if c > 0 then replace t e key
end

module Bin_heap : KEY_HEAP = struct
  type t = Ratio.t Binary_heap.t

  let create ?stats ~capacity () =
    Binary_heap.create ?stats ~capacity:(max capacity 1) ~cmp:Ratio.compare ()

  let is_empty = Binary_heap.is_empty
  let extract_min t =
    let e, k = Binary_heap.extract_min t in
    (k, e)

  let replace t e key =
    Binary_heap.remove t e;
    match key with Some k -> Binary_heap.insert t e k | None -> ()

  let update t e key =
    match key with
    | Some k -> Binary_heap.update_key t e k
    | None -> Binary_heap.remove t e
end

module Pair_heap : KEY_HEAP = struct
  type t = {
    heap : (Ratio.t, int) Pairing_heap.t;
    handle : (Ratio.t, int) Pairing_heap.node option array;
  }

  let create ?stats ~capacity () =
    {
      heap = Pairing_heap.create ?stats ~cmp:Ratio.compare ();
      handle = Array.make (max capacity 1) None;
    }

  let is_empty t = Pairing_heap.is_empty t.heap

  let extract_min t =
    let k, e = Pairing_heap.extract_min t.heap in
    t.handle.(e) <- None;
    (k, e)

  let remove t e =
    match t.handle.(e) with
    | Some h ->
      Pairing_heap.delete t.heap h;
      t.handle.(e) <- None
    | None -> ()

  let replace t e key =
    remove t e;
    match key with
    | Some k -> t.handle.(e) <- Some (Pairing_heap.insert t.heap k e)
    | None -> ()

  let update t e key =
    match (t.handle.(e), key) with
    | None, Some k -> t.handle.(e) <- Some (Pairing_heap.insert t.heap k e)
    | None, None -> ()
    | Some _, None -> remove t e
    | Some h, Some k ->
      let c = Ratio.compare k (Pairing_heap.node_key h) in
      if c < 0 then Pairing_heap.decrease_key t.heap h k
      else if c > 0 then replace t e key
end

let heap_module : heap_kind -> (module KEY_HEAP) = function
  | `Fibonacci -> (module Fib_heap)
  | `Binary -> (module Bin_heap)
  | `Pairing -> (module Pair_heap)

(* ------------------------------------------------------------------ *)
(* initial tree: shortest paths in G_λ as λ → −∞                       *)
(* ------------------------------------------------------------------ *)

(* With cost w − λ·t and λ → −∞, paths compare lexicographically by
   (total transit, total weight).  A FIFO Bellman-Ford over the pairs
   converges because every cycle is lex-positive: t(C) > 0, or
   t(C) = 0 with w(C) >= 0 (zero-transit negative cycles are excluded
   by the well-posedness precondition).  For the mean problem (t ≡ 1)
   this specializes to BFS layers with a per-layer weight DP. *)
let initial_tree ~den g =
  let n = Digraph.n g in
  let dt = Array.make n max_int in
  let dw = Array.make n max_int in
  let parent = Array.make n (-1) in
  dt.(0) <- 0;
  dw.(0) <- 0;
  let in_queue = Array.make n false in
  let queue = Queue.create () in
  Queue.add 0 queue;
  in_queue.(0) <- true;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    in_queue.(u) <- false;
    Digraph.iter_out g u (fun a ->
        let v = Digraph.dst g a in
        let ct = dt.(u) + den a and cw = dw.(u) + Digraph.weight g a in
        if ct < dt.(v) || (ct = dt.(v) && cw < dw.(v)) then begin
          dt.(v) <- ct;
          dw.(v) <- cw;
          parent.(v) <- a;
          if not in_queue.(v) then begin
            in_queue.(v) <- true;
            Queue.add v queue
          end
        end)
  done;
  Array.iteri
    (fun v t ->
      if t = max_int then
        invalid_arg
          (Printf.sprintf
             "Parametric: node %d unreachable from node 0 (input must be \
              strongly connected)" v))
    dt;
  (dt, dw, parent)

let key ~den g dt dw a =
  let u = Digraph.src g a and v = Digraph.dst g a in
  let d = dt.(u) + den a - dt.(v) in
  if d <= 0 then None
  else Some (Ratio.make (dw.(u) + Digraph.weight g a - dw.(v)) d)

(* true iff [anc] lies on the tree path from [x] to the root *)
let is_ancestor g parent anc x =
  let rec go x = x = anc || (parent.(x) >= 0 && go (Digraph.src g parent.(x))) in
  go x

(* cycle made of the tree path v ~> u followed by the arc a = (u, v) *)
let pivot_cycle g parent a =
  let v = Digraph.dst g a in
  let rec path acc x =
    if x = v then acc else path (parent.(x) :: acc) (Digraph.src g parent.(x))
  in
  path [ a ] (Digraph.src g a)

(* nodes of the subtree rooted at v, via freshly built children lists *)
let subtree g parent v =
  let n = Digraph.n g in
  let children = Array.make n [] in
  for x = 0 to n - 1 do
    if parent.(x) >= 0 then begin
      let p = Digraph.src g parent.(x) in
      children.(p) <- x :: children.(p)
    end
  done;
  let acc = Vec.create () in
  let rec go x =
    Vec.push acc x;
    List.iter go children.(x)
  in
  go v;
  acc

let bump_iter stats =
  match stats with
  | Some s -> s.Stats.iterations <- s.Stats.iterations + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* KO: one heap entry per arc                                          *)
(* ------------------------------------------------------------------ *)

let run_ko (module H : KEY_HEAP) ?stats ~den g =
  let rg = Digraph.reverse g (* x's in-arcs are rg's out-arcs *) in
  let n = Digraph.n g and m = Digraph.m g in
  let dt, dw, parent = initial_tree ~den g in
  let heap_stats = Option.map (fun s -> s.Stats.heap) stats in
  let heap = H.create ?stats:heap_stats ~capacity:m () in
  for a = 0 to m - 1 do
    H.replace heap a (key ~den g dt dw a)
  done;
  let in_s = Array.make n false in
  let result = ref None in
  let guard = ref ((4 * n * n) + 64) in
  while !result = None do
    decr guard;
    if !guard < 0 then failwith "Parametric(KO): pivot bound exceeded";
    if H.is_empty heap then
      failwith "Parametric(KO): heap exhausted (acyclic input?)";
    let lambda_hat, a = H.extract_min heap in
    bump_iter stats;
    let u = Digraph.src g a and v = Digraph.dst g a in
    if is_ancestor g parent v u then
      result := Some (lambda_hat, pivot_cycle g parent a)
    else begin
      let delta_w = dw.(u) + Digraph.weight g a - dw.(v) in
      let delta_t = dt.(u) + den a - dt.(v) in
      let s = subtree g parent v in
      Vec.iter
        (fun x ->
          in_s.(x) <- true;
          dw.(x) <- dw.(x) + delta_w;
          dt.(x) <- dt.(x) + delta_t)
        s;
      parent.(v) <- a;
      (* keys change exactly for arcs with one endpoint in the moved
         subtree; KO refreshes them all by delete + insert *)
      Vec.iter
        (fun x ->
          Digraph.iter_out g x (fun b ->
              if not in_s.(Digraph.dst g b) then
                H.replace heap b (key ~den g dt dw b));
          Digraph.iter_out rg x (fun b ->
              if not in_s.(Digraph.src g b) then
                H.replace heap b (key ~den g dt dw b)))
        s;
      Vec.iter (fun x -> in_s.(x) <- false) s
    end
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* YTO: one heap entry per node (min over its in-arcs)                 *)
(* ------------------------------------------------------------------ *)

let run_yto (module H : KEY_HEAP) ?stats ~den g =
  let rg = Digraph.reverse g (* v's in-arcs are rg's out-arcs *) in
  let n = Digraph.n g in
  let dt, dw, parent = initial_tree ~den g in
  let heap_stats = Option.map (fun s -> s.Stats.heap) stats in
  let heap = H.create ?stats:heap_stats ~capacity:n () in
  let best_arc = Array.make n (-1) in
  let node_key v =
    Digraph.fold_out rg v
      (fun acc a ->
        match key ~den g dt dw a with
        | None -> acc
        | Some k -> (
          match acc with
          | Some (bk, _) when Ratio.leq bk k -> acc
          | _ -> Some (k, a)))
      None
  in
  let refresh v =
    match node_key v with
    | None ->
      best_arc.(v) <- -1;
      H.update heap v None
    | Some (k, a) ->
      best_arc.(v) <- a;
      H.update heap v (Some k)
  in
  for v = 0 to n - 1 do
    refresh v
  done;
  let in_s = Array.make n false in
  let affected = Array.make n false in
  let result = ref None in
  let guard = ref ((4 * n * n) + 64) in
  while !result = None do
    decr guard;
    if !guard < 0 then failwith "Parametric(YTO): pivot bound exceeded";
    if H.is_empty heap then
      failwith "Parametric(YTO): heap exhausted (acyclic input?)";
    let lambda_hat, v = H.extract_min heap in
    bump_iter stats;
    let a = best_arc.(v) in
    let u = Digraph.src g a in
    if is_ancestor g parent v u then
      result := Some (lambda_hat, pivot_cycle g parent a)
    else begin
      let delta_w = dw.(u) + Digraph.weight g a - dw.(v) in
      let delta_t = dt.(u) + den a - dt.(v) in
      let s = subtree g parent v in
      Vec.iter
        (fun x ->
          in_s.(x) <- true;
          dw.(x) <- dw.(x) + delta_w;
          dt.(x) <- dt.(x) + delta_t)
        s;
      parent.(v) <- a;
      (* a node's key changes iff one of its in-arcs crosses the
         boundary of the moved subtree: every node of S, plus the
         out-neighbours of S outside S *)
      let to_fix = Vec.create () in
      let mark x =
        if not affected.(x) then begin
          affected.(x) <- true;
          Vec.push to_fix x
        end
      in
      Vec.iter
        (fun x ->
          mark x;
          Digraph.iter_out g x (fun b ->
              let y = Digraph.dst g b in
              if not in_s.(y) then mark y))
        s;
      Vec.iter refresh to_fix;
      Vec.iter (fun x -> affected.(x) <- false) to_fix;
      Vec.iter (fun x -> in_s.(x) <- false) s
    end
  done;
  Option.get !result

let solve ?stats ?(heap = `Fibonacci) ~variant ~den g =
  if Digraph.m g = 0 then invalid_arg "Parametric: graph has no arcs";
  let h = heap_module heap in
  let lambda, cycle =
    match variant with
    | `Ko -> run_ko h ?stats ~den g
    | `Yto -> run_yto h ?stats ~den g
  in
  assert (Digraph.is_cycle g cycle);
  assert (Ratio.equal lambda (Critical.ratio_of_cycle g ~den cycle));
  (lambda, cycle)

let minimum_cycle_mean ?stats ?heap ~variant g =
  solve ?stats ?heap ~variant ~den:(fun _ -> 1) g

let minimum_cycle_ratio ?stats ?heap ~variant g =
  Critical.assert_ratio_well_posed g;
  solve ?stats ?heap ~variant ~den:(Digraph.transit g) g
