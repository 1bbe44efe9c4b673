(* A thin veneer over the shared warm-start core: every operation
   delegates to Warm so this path and the dynamic session subsystem
   (lib/dyn/) cannot diverge. *)

type t = Warm.t

let create ?(problem = Critical.Cycle_mean) ?pool g =
  if Digraph.m g = 0 then invalid_arg "Incremental.create: graph has no arcs";
  Warm.create ~problem ?pool g

let graph = Warm.graph

let set_weight t a w =
  (* re-raise under this module's name for error-message stability *)
  try Warm.set_weight t a w
  with Invalid_argument _ ->
    invalid_arg "Incremental.set_weight: arc out of range"

let set_transit t a tt =
  if tt < 0 then invalid_arg "Incremental.set_transit: negative transit time";
  try Warm.set_transit t a tt
  with Invalid_argument _ ->
    invalid_arg "Incremental.set_transit: arc out of range"

let solve = Warm.solve
