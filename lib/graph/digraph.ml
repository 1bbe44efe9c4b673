(* The CSR arrays live in unboxed Bigarrays rather than OCaml heap
   arrays.  Two properties motivate the layout (see docs/PERF.md):

   - GC invisibility: the data sits outside the OCaml heap, so a
     million-arc graph contributes a handful of custom blocks to a
     major collection instead of a dozen megaword arrays the marker
     must skip over.
   - Domain sharing: Bigarray storage is not moved by the GC and can
     be read concurrently from every domain without copies or
     read barriers — the parallel improvement sweep hands raw views
     of these arrays to executor workers.

   A graph holds what every solver reads and nothing more: the four
   label arrays and the out-CSR, 5m + n + 1 words.  A kernel that
   walks arcs backwards (KO/YTO, co-reachability) builds [reverse g]
   once per run, and Howard converts labels to float as it reads
   them, so loading a graph builds no structure a served request
   never touches. *)

type int_array1 = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ia len : int_array1 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

type t = {
  n : int;
  m : int;
  arc_src : int_array1;
  arc_dst : int_array1;
  arc_weight : int_array1;
  arc_transit : int_array1;
  out_start : int_array1; (* length n+1 *)
  out_arcs : int_array1;  (* arc ids grouped by source, in id order *)
}

type builder = {
  bn : int;
  mutable closed : bool;
  srcs : int Vec.t;
  dsts : int Vec.t;
  weights : int Vec.t;
  transits : int Vec.t;
}

let create_builder ?(expected_arcs = 16) n =
  if n < 0 then invalid_arg "Digraph.create_builder: negative node count";
  ignore expected_arcs;
  {
    bn = n;
    closed = false;
    srcs = Vec.create ();
    dsts = Vec.create ();
    weights = Vec.create ();
    transits = Vec.create ();
  }

let add_arc b ~src ~dst ~weight ?(transit = 1) () =
  if b.closed then invalid_arg "Digraph.add_arc: builder already built";
  if src < 0 || src >= b.bn || dst < 0 || dst >= b.bn then
    invalid_arg "Digraph.add_arc: endpoint out of range";
  if transit < 0 then invalid_arg "Digraph.add_arc: negative transit time";
  let id = Vec.length b.srcs in
  Vec.push b.srcs src;
  Vec.push b.dsts dst;
  Vec.push b.weights weight;
  Vec.push b.transits transit;
  id

let ia_init len f =
  let a = ia len in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set a i (f i)
  done;
  a

(* The CSR over [key] (one endpoint per arc: the tails for the graph,
   the heads for its reverse) by a stable counting sort into [start]
   (n + 1 entries) and [arcs] (m entries): the arcs of each node
   appear in increasing id order.  [start] doubles as the fill cursor
   — after the fill, [start.{k}] has advanced to the end of node k's
   run, which is where node k+1's starts, so one shift restores it and
   no cursor array is allocated. *)
let csr_into n m (key : int_array1) (start : int_array1) (arcs : int_array1) =
  Bigarray.Array1.fill start 0;
  for a = 0 to m - 1 do
    let k = key.{a} + 1 in
    start.{k} <- start.{k} + 1
  done;
  for v = 1 to n do
    start.{v} <- start.{v} + start.{v - 1}
  done;
  for a = 0 to m - 1 do
    let k = key.{a} in
    let i = start.{k} in
    arcs.{i} <- a;
    start.{k} <- i + 1
  done;
  for v = n downto 1 do
    start.{v} <- start.{v - 1}
  done;
  start.{0} <- 0

let csr n m key =
  let start = ia (n + 1) and arcs = ia m in
  csr_into n m key start arcs;
  (start, arcs)

let of_label_arrays ~n ~m ~arc_src ~arc_dst ~arc_weight ~arc_transit =
  let out_start, out_arcs = csr n m arc_src in
  { n; m; arc_src; arc_dst; arc_weight; arc_transit; out_start; out_arcs }

let of_label_arrays_into ~n ~m ~arc_src ~arc_dst ~arc_weight ~arc_transit
    ~out_start ~out_arcs =
  csr_into n m arc_src out_start out_arcs;
  { n; m; arc_src; arc_dst; arc_weight; arc_transit; out_start; out_arcs }

let build b =
  if b.closed then invalid_arg "Digraph.build: builder already built";
  b.closed <- true;
  let m = Vec.length b.srcs in
  let arc_src = ia_init m (Vec.get b.srcs) in
  let arc_dst = ia_init m (Vec.get b.dsts) in
  let arc_weight = ia_init m (Vec.get b.weights) in
  let arc_transit = ia_init m (Vec.get b.transits) in
  of_label_arrays ~n:b.bn ~m ~arc_src ~arc_dst ~arc_weight ~arc_transit

let of_arcs n arcs =
  let b = create_builder ~expected_arcs:(List.length arcs) n in
  let add (src, dst, weight, transit) =
    ignore (add_arc b ~src ~dst ~weight ~transit ()) in
  List.iter add arcs;
  build b

let of_weighted_arcs n arcs =
  of_arcs n (List.map (fun (u, v, w) -> (u, v, w, 1)) arcs)

let n g = g.n
let m g = g.m
let src g a = g.arc_src.{a}
let dst g a = g.arc_dst.{a}
let weight g a = g.arc_weight.{a}
let transit g a = g.arc_transit.{a}

let out_degree g u = g.out_start.{u + 1} - g.out_start.{u}

let extremum_weight name better g =
  if g.m = 0 then invalid_arg ("Digraph." ^ name ^ ": graph has no arcs");
  let best = ref g.arc_weight.{0} in
  for a = 1 to g.m - 1 do
    if better g.arc_weight.{a} !best then best := g.arc_weight.{a}
  done;
  !best

let min_weight g = extremum_weight "min_weight" ( < ) g
let max_weight g = extremum_weight "max_weight" ( > ) g

let total_transit g =
  let acc = ref 0 in
  for a = 0 to g.m - 1 do
    acc := !acc + g.arc_transit.{a}
  done;
  !acc

let iter_out g u f =
  for i = g.out_start.{u} to g.out_start.{u + 1} - 1 do
    f g.out_arcs.{i}
  done

let fold_out g u f init =
  let acc = ref init in
  iter_out g u (fun a -> acc := f !acc a);
  !acc

let iter_arcs g f =
  for a = 0 to g.m - 1 do
    f a
  done

let fold_arcs g f init =
  let acc = ref init in
  iter_arcs g (fun a -> acc := f !acc a);
  !acc

let reverse g =
  let out_start, out_arcs = csr g.n g.m g.arc_dst in
  { g with arc_src = g.arc_dst; arc_dst = g.arc_src; out_start; out_arcs }

let map_weights g f = { g with arc_weight = ia_init g.m f }

let negate_weights g = map_weights g (fun a -> -g.arc_weight.{a})

let map_transits g f =
  let arc_transit =
    ia_init g.m (fun a ->
        let tt = f a in
        if tt < 0 then invalid_arg "Digraph.map_transits: negative transit time";
        tt)
  in
  { g with arc_transit }

module Unsafe = struct
  let set_weight g a w =
    if a < 0 || a >= g.m then
      invalid_arg "Digraph.Unsafe.set_weight: arc out of range";
    g.arc_weight.{a} <- w

  let set_transit g a tt =
    if a < 0 || a >= g.m then
      invalid_arg "Digraph.Unsafe.set_transit: arc out of range";
    if tt < 0 then invalid_arg "Digraph.Unsafe.set_transit: negative transit time";
    g.arc_transit.{a} <- tt

  let out_csr g = (g.out_start, g.out_arcs)
  let srcs g = g.arc_src
  let dsts g = g.arc_dst
  let weights g = g.arc_weight
  let transits g = g.arc_transit
  let of_label_arrays = of_label_arrays
  let of_label_arrays_into = of_label_arrays_into
end

let induced g nodes =
  let new_id = Array.make g.n (-1) in
  let k = ref 0 in
  let assign u =
    if u < 0 || u >= g.n then invalid_arg "Digraph.induced: node out of range";
    if new_id.(u) >= 0 then invalid_arg "Digraph.induced: duplicate node";
    new_id.(u) <- !k;
    incr k
  in
  List.iter assign nodes;
  let node_of_sub = Array.of_list nodes in
  let b = create_builder !k in
  let arc_of_sub = Vec.create () in
  iter_arcs g (fun a ->
      let u = new_id.(g.arc_src.{a}) and v = new_id.(g.arc_dst.{a}) in
      if u >= 0 && v >= 0 then begin
        ignore
          (add_arc b ~src:u ~dst:v ~weight:g.arc_weight.{a}
             ~transit:g.arc_transit.{a} ());
        Vec.push arc_of_sub a
      end);
  (build b, node_of_sub, Vec.to_array arc_of_sub)

(* One-pass split along a node partition.  For every class [c] with
   [keep c], the result holds the same (sub, node_of_sub, arc_of_sub)
   triple [induced g (members c)] would produce — nodes renumbered in
   increasing original order, arcs in increasing original id order —
   but the whole family is built in a single O(n + m + count) sweep
   instead of one O(m) scan per class. *)
let partition g ~count ~component ~keep =
  if Array.length component <> g.n then
    invalid_arg "Digraph.partition: component array has wrong length";
  (* kept classes get dense slots, in increasing class order *)
  let slot = Array.make (max count 1) (-1) in
  let k = ref 0 in
  for c = 0 to count - 1 do
    if keep c then begin
      slot.(c) <- !k;
      incr k
    end
  done;
  let k = !k in
  (* node sweep: per-slot sizes and the new id of every kept node *)
  let sub_n = Array.make (max k 1) 0 in
  let new_id = Array.make g.n (-1) in
  for v = 0 to g.n - 1 do
    let c = component.(v) in
    if c < 0 || c >= count then
      invalid_arg "Digraph.partition: component id out of range";
    let s = slot.(c) in
    if s >= 0 then begin
      new_id.(v) <- sub_n.(s);
      sub_n.(s) <- sub_n.(s) + 1
    end
  done;
  let node_of_sub = Array.init k (fun s -> Array.make sub_n.(s) 0) in
  for v = 0 to g.n - 1 do
    if new_id.(v) >= 0 then node_of_sub.(slot.(component.(v))).(new_id.(v)) <- v
  done;
  (* arc sweep: count intra-class arcs, then fill in arc-id order *)
  let sub_m = Array.make (max k 1) 0 in
  for a = 0 to g.m - 1 do
    let c = component.(g.arc_src.{a}) in
    if c = component.(g.arc_dst.{a}) && slot.(c) >= 0 then
      sub_m.(slot.(c)) <- sub_m.(slot.(c)) + 1
  done;
  let mk () = Array.init k (fun s -> ia sub_m.(s)) in
  let srcs = mk () and dsts = mk () in
  let ws = mk () and ts = mk () in
  let arc_of_sub = Array.init k (fun s -> Array.make sub_m.(s) 0) in
  let cursor = Array.make (max k 1) 0 in
  for a = 0 to g.m - 1 do
    let u = g.arc_src.{a} and v = g.arc_dst.{a} in
    let c = component.(u) in
    if c = component.(v) && slot.(c) >= 0 then begin
      let s = slot.(c) in
      let i = cursor.(s) in
      cursor.(s) <- i + 1;
      srcs.(s).{i} <- new_id.(u);
      dsts.(s).{i} <- new_id.(v);
      ws.(s).{i} <- g.arc_weight.{a};
      ts.(s).{i} <- g.arc_transit.{a};
      arc_of_sub.(s).(i) <- a
    end
  done;
  Array.init k (fun s ->
      ( of_label_arrays ~n:sub_n.(s) ~m:sub_m.(s) ~arc_src:srcs.(s)
          ~arc_dst:dsts.(s) ~arc_weight:ws.(s) ~arc_transit:ts.(s),
        node_of_sub.(s),
        arc_of_sub.(s) ))

let arc_between g u v =
  let found = ref (-1) in
  iter_out g u (fun a -> if !found < 0 && g.arc_dst.{a} = v then found := a);
  if !found < 0 then None else Some !found

let is_cycle g arcs =
  match arcs with
  | [] -> false
  | first :: _ ->
    let ok = ref true in
    let last =
      List.fold_left
        (fun prev a ->
          (match prev with
          | Some p -> if g.arc_dst.{p} <> g.arc_src.{a} then ok := false
          | None -> ());
          Some a)
        None arcs
    in
    (match last with
    | Some l -> if g.arc_dst.{l} <> g.arc_src.{first} then ok := false
    | None -> ok := false);
    !ok

let cycle_weight g arcs = List.fold_left (fun s a -> s + g.arc_weight.{a}) 0 arcs
let cycle_transit g arcs =
  List.fold_left (fun s a -> s + g.arc_transit.{a}) 0 arcs

let equal_structure g h =
  (* Bigarray equality is element-wise (caml_ba_compare) *)
  g.n = h.n && g.m = h.m
  && g.arc_src = h.arc_src && g.arc_dst = h.arc_dst
  && g.arc_weight = h.arc_weight && g.arc_transit = h.arc_transit
