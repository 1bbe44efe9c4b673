(* Shared test utilities: Alcotest testables and QCheck generators. *)

let ratio = Alcotest.testable Ratio.pp Ratio.equal

let check_ratio = Alcotest.check ratio

let r = Ratio.make

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

(* A strongly connected graph: permutation ring + extra random arcs.
   Weights may be negative; transit times in [1, tmax]. *)
let gen_strongly_connected ?(max_n = 10) ?(max_extra = 20) ?(wlo = -20)
    ?(whi = 20) ?(tmax = 1) () =
  let open QCheck.Gen in
  let* n = int_range 1 max_n in
  let* extra = int_range 0 max_extra in
  let* seed = int_range 0 1_000_000 in
  let rng = Rng.create seed in
  let perm = Array.init n Fun.id in
  Rng.shuffle rng perm;
  let arcs = ref [] in
  for i = 0 to n - 1 do
    arcs :=
      (perm.(i), perm.((i + 1) mod n), Rng.in_range rng wlo whi,
       Rng.in_range rng 1 tmax)
      :: !arcs
  done;
  for _ = 1 to extra do
    arcs :=
      (Rng.int rng n, Rng.int rng n, Rng.in_range rng wlo whi,
       Rng.in_range rng 1 tmax)
      :: !arcs
  done;
  return (Digraph.of_arcs n !arcs)

(* Arbitrary digraph, possibly disconnected or acyclic. *)
let gen_any_graph ?(max_n = 8) ?(max_m = 16) ?(wlo = -20) ?(whi = 20)
    ?(tmax = 1) () =
  let open QCheck.Gen in
  let* n = int_range 0 max_n in
  if n = 0 then return (Digraph.of_arcs 0 [])
  else
    let* m = int_range 0 max_m in
    let* seed = int_range 0 1_000_000 in
    let rng = Rng.create seed in
    let arcs = ref [] in
    for _ = 1 to m do
      arcs :=
        (Rng.int rng n, Rng.int rng n, Rng.in_range rng wlo whi,
         Rng.in_range rng 1 tmax)
        :: !arcs
    done;
    return (Digraph.of_arcs n !arcs)

(* One graph drawn from ANY generator family — the cross-family stress
   input for determinism properties.  Sizes are kept small enough that
   a property can afford to solve each instance several times, but the
   set spans every structural extreme the generators cover: a bare
   cycle, maximal density, torus locality, layered feedback, the
   long-critical adversary, a many-SCC chain, disjoint cycles, SPRAND,
   the circuit register graphs and the low-diameter expander. *)
let gen_family () =
  let open QCheck.Gen in
  let* seed = int_range 0 1_000_000 in
  let* pick = int_range 0 9 in
  match pick with
  | 0 ->
    let+ n = int_range 1 24 in
    Families.ring ~weight:(fun i -> ((i + seed) mod 7) - 3) n
  | 1 ->
    let+ n = int_range 2 10 in
    Families.complete ~seed ~weights:(-4, 4) n
  | 2 ->
    let* rows = int_range 2 5 in
    let+ cols = int_range 2 5 in
    Families.grid_torus ~seed ~weights:(-6, 6) rows cols
  | 3 ->
    let* layers = int_range 2 4 in
    let+ width = int_range 1 4 in
    Families.layered_dataflow ~seed ~weights:(-5, 5) ~layers ~width ()
  | 4 ->
    let+ n = int_range 3 16 in
    Families.long_critical ~chord_weight:50 n
  | 5 ->
    let* components = int_range 1 4 in
    let+ size = int_range 2 6 in
    Families.many_scc ~seed ~weights:(-8, 8) ~components ~size ()
  | 6 ->
    let* len1 = int_range 1 6 in
    let+ len2 = int_range 1 6 in
    Families.two_cycles ~len1 ~w1:(seed mod 9) ~len2 ~w2:((seed mod 5) - 2)
  | 7 ->
    let* n = int_range 2 24 in
    let+ extra = int_range 0 24 in
    Sprand.generate ~seed ~weights:(-10, 10) ~transits:(1, 3) ~n
      ~m:(n + extra) ()
  | 8 ->
    let* n = int_range 4 40 in
    let+ diameter = int_range 2 4 in
    Families.low_diameter ~seed ~weights:(-6, 6) ~diameter n
  | _ ->
    let+ registers = int_range 2 24 in
    Circuit.generate ~seed ~registers ()

let print_graph g = Graph_io.to_string g

let arb_family () = QCheck.make ~print:print_graph (gen_family ())

let arb_strongly_connected ?max_n ?max_extra ?wlo ?whi ?tmax () =
  QCheck.make ~print:print_graph
    (gen_strongly_connected ?max_n ?max_extra ?wlo ?whi ?tmax ())

let arb_any_graph ?max_n ?max_m ?wlo ?whi ?tmax () =
  QCheck.make ~print:print_graph (gen_any_graph ?max_n ?max_m ?wlo ?whi ?tmax ())

let qtests cases = List.map QCheck_alcotest.to_alcotest cases

(* ------------------------------------------------------------------ *)
(* Multicore test configuration                                        *)
(* ------------------------------------------------------------------ *)

(* OCR_TEST_JOBS (CI's forced-multicore leg sets it to 8) makes every
   test that takes a job count run with that many workers instead of
   its serial default, so the chunked improvement sweep and the
   per-component fan-out face the same assertions as the serial
   paths. *)
let env_jobs =
  match Sys.getenv_opt "OCR_TEST_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some j when j >= 1 -> Some j
    | _ -> None)

let default_jobs = Option.value env_jobs ~default:1

(* the job counts a determinism sweep must cover: serial, the smallest
   parallel pool, an oversubscribed one, and any distinct override *)
let jobs_sweep =
  match env_jobs with
  | Some j when not (List.mem j [ 1; 2; 8 ]) -> [ 1; 2; 8; j ]
  | _ -> [ 1; 2; 8 ]

(* The oracle value as a Ratio, for cross-checking. *)
let oracle_mean objective g =
  Option.map
    (fun (a : Oracle.answer) -> Ratio.make a.Oracle.num a.Oracle.den)
    (Oracle.cycle_mean objective g)

let oracle_ratio objective g =
  Option.map
    (fun (a : Oracle.answer) -> Ratio.make a.Oracle.num a.Oracle.den)
    (Oracle.cycle_ratio objective g)

(* ------------------------------------------------------------------ *)
(* Test-only oracles                                                   *)
(* ------------------------------------------------------------------ *)

(* The implementations the library's fast paths replaced live in
   test/reference (a private library, so the E20 bench row can check
   against them too): the line-splitting parsers, with the arc-count
   rule layered on through their hooks, and the Vec-based Tarjan. *)
let oracle_of_string = Reference.counted_of_string
let oracle_of_dimacs = Reference.counted_of_dimacs
let oracle_scc = Reference.scc_components
