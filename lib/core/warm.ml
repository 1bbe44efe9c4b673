let sp_locate = Obs.intern "warm.locate"
let sp_howard = Obs.intern "warm.howard"

let repair_policy g policy =
  let n = Digraph.n g and m = Digraph.m g in
  if Array.length policy <> n then
    invalid_arg "Warm.repair_policy: policy has wrong length";
  for u = 0 to n - 1 do
    let a = policy.(u) in
    let valid = a >= 0 && a < m && Digraph.src g a = u in
    if not valid then begin
      (* cheapest out-arc, lowest arc id on ties — [iter_out] yields
         arcs in increasing id order, so keeping the first strict
         minimum reproduces Howard's [`Cheapest_arc] choice *)
      let best = ref (-1) in
      Digraph.iter_out g u (fun b ->
          if !best < 0 || Digraph.weight g b < Digraph.weight g !best then
            best := b);
      if !best < 0 then
        invalid_arg "Warm.repair_policy: node without out-arc";
      policy.(u) <- !best
    end
  done

let solve_warm ?stats ?policy ?potentials ?scratch ?hint ?pool problem g =
  let policy =
    match policy with
    | None -> None
    | Some p ->
      repair_policy g p;
      Some p
  in
  (* Hint fast path: when the caller knows the optimum of a slightly
     different labelling of this graph, one location pass classifies it
     against the current labels.  [Optimal] proves the hint is still
     the optimum — and since the location pass at λ* (Bellman–Ford from
     the all-zero super-source, then the tight-arc cycle search) is
     exactly how a cold solve derives its witness, the answer is
     bit-identical to Howard's.  [Above] hands a strictly better cycle
     to the same exact finisher Howard ends with.  Only [Below] (the
     optimum rose past the hint) needs the full policy iteration. *)
  let tr = !Obs.enabled_flag in
  let fast =
    match hint, policy with
    | Some lambda, Some pol -> (
      (* the Howard entry points check well-posedness; the fast path
         must too, or an ill-posed instance would descend forever *)
      if problem = Critical.Cycle_ratio then Critical.assert_ratio_well_posed g;
      let den = Critical.den problem g in
      if tr then Trace.begin_span sp_locate;
      let located = Critical.locate ?stats ~den g lambda in
      if tr then Trace.end_span sp_locate;
      match located with
      | Critical.Optimal w -> Some (lambda, w, pol)
      | Critical.Above c ->
        let lambda', w = Critical.improve_to_optimal ?stats ~den g c in
        Some (lambda', w, pol)
      | Critical.Below -> None)
    | _ -> None
  in
  match fast with
  | Some result -> result
  | None ->
    if tr then Trace.begin_span sp_howard;
    let result =
      match problem with
      | Critical.Cycle_mean ->
        Howard.minimum_cycle_mean_warm ?stats ?policy ?potentials ?scratch
          ?pool g
      | Critical.Cycle_ratio ->
        Howard.minimum_cycle_ratio_warm ?stats ?policy ?potentials ?scratch
          ?pool g
    in
    if tr then Trace.end_span sp_howard;
    result

type t = {
  problem : Critical.problem;
  base : Digraph.t;
  weights : int array;  (* current labels, arc id -> value *)
  transits : int array;
  mutable graph : Digraph.t; (* [base] relabelled; valid unless [dirty] *)
  mutable dirty : bool;
  mutable policy : int array option;
  mutable last : Ratio.t option; (* last optimum, the next solve's hint *)
  potentials : float array; (* in/out node distances, kept across solves *)
  scratch : Howard.scratch; (* kernel workspace, reused across re-solves *)
  pool : Executor.t option; (* chunks the improvement sweep when present *)
}

let create ?(problem = Critical.Cycle_mean) ?pool g =
  if Digraph.m g = 0 then invalid_arg "Warm.create: graph has no arcs";
  {
    problem;
    base = g;
    weights = Array.init (Digraph.m g) (Digraph.weight g);
    transits = Array.init (Digraph.m g) (Digraph.transit g);
    graph = g;
    dirty = false;
    policy = None;
    last = None;
    potentials = Array.make (Digraph.n g) 0.0;
    scratch = Howard.create_scratch ();
    pool;
  }

let problem t = t.problem

let refresh t =
  if t.dirty then begin
    let w = t.weights and tt = t.transits in
    t.graph <-
      Digraph.map_transits (Digraph.map_weights t.base (fun a -> w.(a)))
        (fun a -> tt.(a));
    t.dirty <- false
  end

let graph t =
  refresh t;
  t.graph

let set_weight t a w =
  if a < 0 || a >= Array.length t.weights then
    invalid_arg "Warm.set_weight: arc out of range";
  if t.weights.(a) <> w then begin
    t.weights.(a) <- w;
    t.dirty <- true
  end

let set_transit t a tt =
  if a < 0 || a >= Array.length t.transits then
    invalid_arg "Warm.set_transit: arc out of range";
  if tt < 0 then invalid_arg "Warm.set_transit: negative transit time";
  if t.transits.(a) <> tt then begin
    t.transits.(a) <- tt;
    t.dirty <- true
  end

let solve ?stats t =
  refresh t;
  let lambda, cycle, policy =
    solve_warm ?stats ?policy:t.policy ~potentials:t.potentials
      ~scratch:t.scratch ?hint:t.last ?pool:t.pool t.problem t.graph
  in
  t.policy <- Some policy;
  t.last <- Some lambda;
  (lambda, cycle)
