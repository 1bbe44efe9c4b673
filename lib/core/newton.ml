(* Newton's (Dinkelbach's) descent in exact integers.

   Start from the best cycle of the cheapest-out-arc policy, Howard's
   Figure 1 initialization evaluated on exact ratios, then repeat
   {!Critical.improve_to_optimal}'s step: probe the current ratio λ with
   one integer negative-cycle test and move to the negative cycle it
   returns, until the probe answers Optimal.  Every step lowers λ
   strictly within the finite set of cycle ratios, and the count of
   steps is strongly polynomial (Radzik, 1992); on the served families
   it is 1-9 probes per component.  The witness is the tight-arc cycle
   of the closing probe at λ*, which depends on the graph alone, so the
   answer equals Howard's (λ, witness) pair exactly. *)

let sp_solve = Obs.intern "newton.solve"

(* The best cycle, by exact ratio, of the policy that gives each node
   its lowest-weight out-arc (lowest arc id on ties), with the policy
   cycles counted into [stats.cycles_examined].  None when no walk of
   the policy closes: on inputs that are not strongly connected, every
   walk may end at a node without out-arcs.  The policy and the walk
   colours live in the workspace's [pred_arc] and [index]. *)
let policy_cycle ?stats ~den g =
  let n = Digraph.n g in
  Probe.borrow ~n ~m:0 (fun ws ->
      let pi = ws.Probe.pred_arc and color = ws.Probe.index in
      for v = 0 to n - 1 do
        pi.{v} <- -1;
        color.{v} <- 0 (* 0 unseen, 1 on the current walk, 2 done *)
      done;
      for a = 0 to Digraph.m g - 1 do
        let u = Digraph.src g a in
        if pi.{u} < 0 || Digraph.weight g a < Digraph.weight g pi.{u} then
          pi.{u} <- a
      done;
      let next x = Digraph.dst g pi.{x} in
      let best_num = ref 0 and best_den = ref 0 and best_entry = ref (-1) in
      for start = 0 to n - 1 do
        let x = ref start in
        while color.{!x} = 0 && pi.{!x} >= 0 do
          color.{!x} <- 1;
          x := next !x
        done;
        if color.{!x} = 1 then begin
          (* a new policy cycle through !x *)
          (match stats with
          | Some s -> s.Stats.cycles_examined <- s.Stats.cycles_examined + 1
          | None -> ());
          let num = ref 0 and dn = ref 0 and y = ref !x in
          let continue = ref true in
          while !continue do
            let a = pi.{!y} in
            num := !num + Digraph.weight g a;
            dn := !dn + den a;
            y := Digraph.dst g a;
            continue := !y <> !x
          done;
          if !best_den = 0 || !num * !best_den < !best_num * !dn then begin
            best_num := !num;
            best_den := !dn;
            best_entry := !x
          end
        end;
        let y = ref start in
        while color.{!y} = 1 do
          color.{!y} <- 2;
          y := next !y
        done
      done;
      if !best_entry < 0 then None
      else begin
        let arcs = ref [] and y = ref !best_entry in
        let continue = ref true in
        while !continue do
          arcs := pi.{!y} :: !arcs;
          y := next !y;
          continue := !y <> !best_entry
        done;
        Some (List.rev !arcs)
      end)

let descent ?stats ?budget ~who ~problem g =
  if Digraph.m g = 0 then invalid_arg (who ^ ": graph has no arcs");
  if problem = Critical.Cycle_ratio then Critical.assert_ratio_well_posed g;
  let tr = !Obs.enabled_flag in
  if tr then Trace.begin_span sp_solve;
  let den = Critical.den problem g in
  let calls () =
    match stats with Some s -> s.Stats.oracle_calls | None -> 0
  in
  let calls0 = calls () in
  Fun.protect
    ~finally:(fun () ->
      (* one iteration per probe, blown budgets included *)
      (match stats with
      | Some s -> s.Stats.iterations <- s.Stats.iterations + calls () - calls0
      | None -> ());
      if tr then Trace.end_span sp_solve)
    (fun () ->
      let start =
        match policy_cycle ?stats ~den g with
        | Some c -> c
        | None -> Critical.any_cycle ~who g
      in
      Critical.improve_to_optimal ?stats ?budget ~den g start)

let minimum_cycle_mean ?stats ?budget ?pool g =
  ignore pool;
  descent ?stats ?budget ~who:"Newton" ~problem:Critical.Cycle_mean g

let minimum_cycle_ratio ?stats ?budget ?pool g =
  ignore pool;
  descent ?stats ?budget ~who:"Newton" ~problem:Critical.Cycle_ratio g
