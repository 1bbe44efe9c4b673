type t = {
  count : int;
  component : int array;
  members : int list array;
}

(* Iterative Tarjan over the graph's own CSR.  Each DFS frame is a
   node and an int cursor into [out_arcs]; frames, the Tarjan stack
   and the per-node index/lowlink are this domain's Probe workspace,
   so the sweep allocates only its result.  A visited node is on the
   Tarjan stack iff it has no component yet.  Roots are tried in
   increasing node order and successors in CSR order, which fixes the
   component ids (see the .mli).  Accesses are unchecked: every index
   is a node id, a stack or frame depth (each node is pushed once, so
   < n), or a CSR position below [out_start.{u + 1}]. *)
let compute g =
  let n = Digraph.n g in
  let out_start, out_arcs = Digraph.Unsafe.out_csr g in
  let dsts = Digraph.Unsafe.dsts g in
  let component = Array.make n (-1) in
  let comp_count = ref 0 in
  Probe.borrow ~n ~m:0 (fun ws ->
      let index = ws.Probe.index and lowlink = ws.Probe.lowlink in
      let stack = ws.Probe.stack and sp = ref 0 in
      let frame_node = ws.Probe.frame_node
      and frame_cursor = ws.Probe.frame_cursor in
      let fp = ref 0 in
      let next_index = ref 0 in
      for v = 0 to n - 1 do
        Bigarray.Array1.unsafe_set index v (-1)
      done;
      let visit v =
        Bigarray.Array1.unsafe_set index v !next_index;
        Bigarray.Array1.unsafe_set lowlink v !next_index;
        incr next_index;
        Bigarray.Array1.unsafe_set stack !sp v;
        incr sp;
        Bigarray.Array1.unsafe_set frame_node !fp v;
        Bigarray.Array1.unsafe_set frame_cursor !fp
          (Bigarray.Array1.unsafe_get out_start v);
        incr fp
      in
      for root = 0 to n - 1 do
        if Bigarray.Array1.unsafe_get index root < 0 then begin
          visit root;
          while !fp > 0 do
            let f = !fp - 1 in
            let u = Bigarray.Array1.unsafe_get frame_node f in
            let c = Bigarray.Array1.unsafe_get frame_cursor f in
            if c < Bigarray.Array1.unsafe_get out_start (u + 1) then begin
              Bigarray.Array1.unsafe_set frame_cursor f (c + 1);
              let v =
                Bigarray.Array1.unsafe_get dsts
                  (Bigarray.Array1.unsafe_get out_arcs c)
              in
              let iv = Bigarray.Array1.unsafe_get index v in
              if iv < 0 then visit v
              else if
                Array.unsafe_get component v < 0
                && iv < Bigarray.Array1.unsafe_get lowlink u
              then Bigarray.Array1.unsafe_set lowlink u iv
            end
            else begin
              fp := f;
              let lu = Bigarray.Array1.unsafe_get lowlink u in
              if lu = Bigarray.Array1.unsafe_get index u then begin
                (* u is the root of a component: pop it off the Tarjan
                   stack *)
                let continue = ref true in
                while !continue do
                  decr sp;
                  let w = Bigarray.Array1.unsafe_get stack !sp in
                  Array.unsafe_set component w !comp_count;
                  if w = u then continue := false
                done;
                incr comp_count
              end;
              if f > 0 then begin
                let p = Bigarray.Array1.unsafe_get frame_node (f - 1) in
                if lu < Bigarray.Array1.unsafe_get lowlink p then
                  Bigarray.Array1.unsafe_set lowlink p lu
              end
            end
          done
        end
      done);
  let members = Array.make !comp_count [] in
  for v = n - 1 downto 0 do
    members.(component.(v)) <- v :: members.(component.(v))
  done;
  { count = !comp_count; component; members }

let is_trivial g scc c =
  match scc.members.(c) with
  | [ v ] -> Digraph.arc_between g v v = None
  | _ -> false

let nontrivial_components g scc =
  let acc = ref [] in
  for c = scc.count - 1 downto 0 do
    if not (is_trivial g scc c) then acc := scc.members.(c) :: !acc
  done;
  !acc

type subproblem = {
  comp : int;
  sub : Digraph.t;
  node_of_sub : int array;
  arc_of_sub : int array;
}

(* the one-pass split for the general case: one fresh graph per kept
   component *)
let copy_partition ~nontrivial_only g t =
  let keep, kept_ids =
    if not nontrivial_only then
      ((fun _ -> true), Array.init t.count Fun.id)
    else begin
      (* a component is cyclic iff it has >= 2 nodes (strong
         connectivity forces a cycle) or a self-loop; both facts fall
         out of one O(n + m) sweep, with no per-component arc scans *)
      let size = Array.make (max t.count 1) 0 in
      Array.iter (fun c -> size.(c) <- size.(c) + 1) t.component;
      let cyclic = Array.make (max t.count 1) false in
      Digraph.iter_arcs g (fun a ->
          let u = Digraph.src g a in
          if u = Digraph.dst g a then cyclic.(t.component.(u)) <- true);
      let keep c = size.(c) >= 2 || cyclic.(c) in
      let ids = ref [] in
      for c = t.count - 1 downto 0 do
        if keep c then ids := c :: !ids
      done;
      (keep, Array.of_list !ids)
    end
  in
  let triples =
    Digraph.partition g ~count:t.count ~component:t.component ~keep
  in
  Array.mapi
    (fun i (sub, node_of_sub, arc_of_sub) ->
      { comp = kept_ids.(i); sub; node_of_sub; arc_of_sub })
    triples

let identity len =
  let a = Array.make len 0 in
  for i = 1 to len - 1 do
    a.(i) <- i
  done;
  a

let partition ?(nontrivial_only = true) g t =
  let n = Digraph.n g in
  (* One component covering every node: its induced subgraph is [g]
     itself (identity renumbering, every arc intra-component, arcs in
     id order), so hand back [g] instead of copying it.  Kept when
     cyclic: two or more nodes, or a lone node with a self-loop. *)
  if
    t.count = 1
    && Array.length t.component = n
    && ((not nontrivial_only) || n >= 2 || Digraph.arc_between g 0 0 <> None)
  then
    [| { comp = 0; sub = g; node_of_sub = identity n;
         arc_of_sub = identity (Digraph.m g) } |]
  else copy_partition ~nontrivial_only g t

let condensation g t =
  let b = Digraph.create_builder t.count in
  Digraph.iter_arcs g (fun a ->
      let cu = t.component.(Digraph.src g a)
      and cv = t.component.(Digraph.dst g a) in
      if cu <> cv then
        ignore
          (Digraph.add_arc b ~src:cu ~dst:cv ~weight:(Digraph.weight g a)
             ~transit:(Digraph.transit g a) ()));
  Digraph.build b
