type int_array1 = Digraph.int_array1

type byte_array1 =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable node_cap : int;
  mutable arc_cap : int;
  mutable ring : int_array1;
  mutable in_queue : byte_array1;
  mutable times_updated : int_array1;
  mutable pred_arc : int_array1;
  mutable mark : int_array1;
  mutable dist : int_array1;
  mutable costs : int_array1;
  mutable index : int_array1;
  mutable lowlink : int_array1;
  mutable stack : int_array1;
  mutable frame_node : int_array1;
  mutable frame_cursor : int_array1;
  mutable borrowed : bool;
}

let ia len : int_array1 = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

let create () =
  {
    node_cap = 0;
    arc_cap = 0;
    ring = ia 1;
    in_queue = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout 0;
    times_updated = ia 0;
    pred_arc = ia 0;
    mark = ia 0;
    dist = ia 0;
    costs = ia 0;
    index = ia 0;
    lowlink = ia 0;
    stack = ia 0;
    frame_node = ia 0;
    frame_cursor = ia 0;
    borrowed = false;
  }

(* Grow-only, to the largest size asked for so far plus 1/8: a smaller
   graph reuses the buffers as they are, a session that inserts one arc
   at a time regrows once per eighth rather than on every insertion,
   and every user writes what it reads first. *)
let grow ws ~n ~m =
  if n > ws.node_cap then begin
    let n = n + (n / 8) in
    ws.node_cap <- n;
    ws.ring <- ia (n + 1);
    ws.in_queue <-
      Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n;
    ws.times_updated <- ia n;
    ws.pred_arc <- ia n;
    ws.mark <- ia n;
    ws.dist <- ia n;
    ws.index <- ia n;
    ws.lowlink <- ia n;
    ws.stack <- ia n;
    ws.frame_node <- ia n;
    ws.frame_cursor <- ia n
  end;
  if m > ws.arc_cap then begin
    let m = m + (m / 8) in
    ws.arc_cap <- m;
    ws.costs <- ia m
  end

let key = Domain.DLS.new_key create

let borrow ~n ~m f =
  let ws = Domain.DLS.get key in
  if ws.borrowed then
    invalid_arg "Probe.borrow: this domain's workspace is already borrowed";
  grow ws ~n ~m;
  ws.borrowed <- true;
  match f ws with
  | v ->
    ws.borrowed <- false;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ws.borrowed <- false;
    Printexc.raise_with_backtrace e bt
