(** The probe workspace: one per domain, off the OCaml heap, lent to
    every integer negative-cycle probe, tight-cycle search and Tarjan
    sweep that domain runs.

    An exact answer is a chain of Bellman–Ford probes on G_λ.  Their
    m-int cost arrays, the engine's n-arrays and the DFS stacks live
    here as Bigarrays (GC-invisible, like [Howard.scratch]) held in
    [Domain.DLS], grown to the largest graph or component borrowed for
    so far plus an eighth and never shrunk, so a probe on a graph no
    larger than one already seen allocates nothing for them, and a
    component that gains one arc at a time regrows them once per
    eighth.

    A workspace is borrowed for the extent of one call ({!borrow});
    only the functions documented as taking a borrowed workspace touch
    its fields.  The fields are valid for indices below the [n] and
    [m] the borrow asked for.  On entry they hold whatever the last
    user left there, so every user writes a buffer before reading it. *)

type int_array1 = Digraph.int_array1

type byte_array1 =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  mutable node_cap : int;  (** node buffers hold [node_cap] entries *)
  mutable arc_cap : int;  (** [costs] holds [arc_cap] entries *)
  mutable ring : int_array1;
      (** Bellman–Ford's FIFO ring, [node_cap + 1] entries *)
  mutable in_queue : byte_array1;  (** Bellman–Ford's queued flags *)
  mutable times_updated : int_array1;  (** Bellman–Ford's update counts *)
  mutable pred_arc : int_array1;
      (** Bellman–Ford's predecessor arcs; the start policy of
          [Newton] *)
  mutable mark : int_array1;  (** the predecessor-graph search's stamps *)
  mutable dist : int_array1;
      (** Integer distances; a feasible probe's potentials *)
  mutable costs : int_array1;  (** G_λ's integer arc costs *)
  mutable index : int_array1;
      (** Per-node DFS state: Tarjan's index, the tight-cycle search's
          depth, [Newton]'s walk colours *)
  mutable lowlink : int_array1;  (** Tarjan's lowlinks *)
  mutable stack : int_array1;  (** Tarjan's stack *)
  mutable frame_node : int_array1;  (** DFS frames: the node *)
  mutable frame_cursor : int_array1;
      (** DFS frames: the next out-arc position in the CSR *)
  mutable borrowed : bool;
}

val borrow : n:int -> m:int -> (t -> 'a) -> 'a
(** [borrow ~n ~m f] runs [f] on this domain's workspace, grown first
    to hold [n] nodes and [m] arcs, and returns the workspace when [f]
    returns or raises.
    @raise Invalid_argument if this domain's workspace is already
    borrowed, i.e. on a nested borrow: no two users may share the
    buffers at once. *)
