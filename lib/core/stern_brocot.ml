(* The exact lane's original entry points, kept under their old name
   for the callers that still name them; the lane itself is Newton's
   descent. *)

let minimum_cycle_mean ?stats ?budget ?pool g =
  ignore pool;
  Newton.descent ?stats ?budget ~who:"Stern_brocot"
    ~problem:Critical.Cycle_mean g

let minimum_cycle_ratio ?stats ?budget ?pool g =
  ignore pool;
  Newton.descent ?stats ?budget ~who:"Stern_brocot"
    ~problem:Critical.Cycle_ratio g
