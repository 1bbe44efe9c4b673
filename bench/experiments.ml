(* The experiment suite E1-E8 (see DESIGN.md §2): every table of the
   paper's evaluation (Table 2) and every observation of §4 backed by
   tech report data is regenerated here, plus the ratio-problem and
   Howard-bound extensions. *)

type config = {
  sizes : int list;         (* node counts n *)
  densities : float list;   (* m / n *)
  seeds : int list;
  cell_budget_ms : float;   (* one-seed soft budget per (alg, instance) *)
  circuits : (string * int) list;
}

let quick_config =
  {
    sizes = [ 256; 512; 1024 ];
    densities = [ 1.0; 1.5; 2.0; 2.5; 3.0 ];
    seeds = [ 1; 2; 3 ];
    cell_budget_ms = 5_000.0;
    circuits =
      List.filter (fun (_, r) -> r <= 650) Circuit.benchmark_suite;
  }

let full_config =
  {
    sizes = [ 512; 1024; 2048; 4096; 8192 ];
    densities = [ 1.0; 1.5; 2.0; 2.5; 3.0 ];
    seeds = [ 1; 2; 3 ];
    cell_budget_ms = 60_000.0;
    circuits = Circuit.benchmark_suite;
  }

let instance ~n ~density ~seed =
  let m = max n (int_of_float (Float.round (density *. float_of_int n))) in
  Sprand.generate ~seed ~n ~m ()

let grid cfg f =
  List.iter
    (fun n -> List.iter (fun density -> f ~n ~density) cfg.densities)
    cfg.sizes

(* memory guard: the Karp-table family allocates (n+1)·n words per
   table; refuse beyond this budget, as the paper's N/A entries did *)
let memory_budget_words = 600_000_000

let table_words n = (n + 1) * n

let needs_too_much_memory alg n =
  match alg with
  | Registry.Karp | Registry.Dg -> table_words n > memory_budget_words
  | Registry.Ho -> 2 * table_words n > memory_budget_words
  | Registry.Burns | Registry.Ko | Registry.Yto | Registry.Howard
  | Registry.Lawler | Registry.Karp2 | Registry.Oa1 | Registry.Oa2 -> false

(* per-(algorithm, density) blow-up memo: once an algorithm exceeds 5x
   the cell budget at some n, larger n at the same density are skipped,
   like the paper's "could not get a result in a day" entries *)
let blown : (string * float, unit) Hashtbl.t = Hashtbl.create 16

let run_cell cfg ~alg ~n ~density =
  if needs_too_much_memory alg n then None
  else if Hashtbl.mem blown (Registry.name alg, density) then None
  else begin
    let times = ref [] in
    let budget_hit = ref false in
    List.iter
      (fun seed ->
        if not !budget_hit then begin
          let g = instance ~n ~density ~seed in
          let dt =
            Timing.time_ms ~reps:(if n <= 512 then 3 else 1) (fun () ->
                ignore (Registry.minimum_cycle_mean alg g))
          in
          times := dt :: !times;
          if dt > cfg.cell_budget_ms then budget_hit := true
        end)
      cfg.seeds;
    let avg = Timing.mean !times in
    if avg > 5.0 *. cfg.cell_budget_ms then
      Hashtbl.replace blown (Registry.name alg, density) ();
    Some avg
  end

(* ------------------------------------------------------------------ *)
(* E1: the minimum cycle mean vs the graph parameters (§4.1)           *)
(* ------------------------------------------------------------------ *)

let e1 cfg =
  let rows = ref [] in
  grid cfg (fun ~n ~density ->
      let lambdas =
        List.map
          (fun seed ->
            let g = instance ~n ~density ~seed in
            let lambda, _ = Registry.minimum_cycle_mean Registry.Howard g in
            Ratio.to_float lambda)
          cfg.seeds
      in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.1f" density;
          Printf.sprintf "%.1f" (Timing.mean lambdas);
        ]
        :: !rows);
  Tables.print
    ~title:
      "E1 (§4.1): minimum cycle mean on SPRAND graphs — nearly independent \
       of n, decreasing in density m/n"
    ~header:[ "n"; "m/n"; "avg lambda*" ]
    (List.rev !rows);
  print_endline
    "  expectation: each column block shows lambda* shrinking as m/n grows,\n\
    \  and staying within the same range as n changes at fixed density."

(* ------------------------------------------------------------------ *)
(* E2: KO vs YTO heap operations (§4.2)                                *)
(* ------------------------------------------------------------------ *)

let e2 cfg =
  let rows = ref [] in
  grid cfg (fun ~n ~density ->
      let acc_ko = Stats.create () and acc_yto = Stats.create () in
      let t_ko = ref [] and t_yto = ref [] in
      List.iter
        (fun seed ->
          let g = instance ~n ~density ~seed in
          let s = Stats.create () in
          let dt = Timing.time_ms (fun () -> ignore (Ko.minimum_cycle_mean ~stats:s g)) in
          (* time_ms may run the solver several times; rebuild stats once *)
          Stats.reset s;
          ignore (Ko.minimum_cycle_mean ~stats:s g);
          Stats.add acc_ko s;
          t_ko := dt :: !t_ko;
          let s = Stats.create () in
          let dt = Timing.time_ms (fun () -> ignore (Yto.minimum_cycle_mean ~stats:s g)) in
          Stats.reset s;
          ignore (Yto.minimum_cycle_mean ~stats:s g);
          Stats.add acc_yto s;
          t_yto := dt :: !t_yto)
        cfg.seeds;
      let k = List.length cfg.seeds in
      let per x = x / k in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.1f" density;
          string_of_int (per acc_ko.Stats.iterations);
          string_of_int (per acc_ko.Stats.heap.Heap_stats.inserts);
          string_of_int (per acc_yto.Stats.heap.Heap_stats.inserts);
          string_of_int (per acc_ko.Stats.heap.Heap_stats.decrease_keys);
          string_of_int (per acc_yto.Stats.heap.Heap_stats.decrease_keys);
          Tables.fmt_ms (Timing.mean !t_ko);
          Tables.fmt_ms (Timing.mean !t_yto);
        ]
        :: !rows);
  Tables.print
    ~title:
      "E2 (§4.2): KO vs YTO — same pivots, fewer heap operations for YTO \
       (savings grow with density)"
    ~header:
      [ "n"; "m/n"; "pivots"; "KO ins"; "YTO ins"; "KO dec"; "YTO dec";
        "KO ms"; "YTO ms" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E3: iteration counts (§4.3)                                         *)
(* ------------------------------------------------------------------ *)

let e3 cfg =
  let rows = ref [] in
  grid cfg (fun ~n ~density ->
      let iters solve =
        let xs =
          List.map
            (fun seed ->
              let g = instance ~n ~density ~seed in
              let s = Stats.create () in
              ignore (solve ~stats:s g);
              s)
            cfg.seeds
        in
        xs
      in
      let avg f xs =
        List.fold_left (fun a s -> a + f s) 0 xs / List.length xs
      in
      let burns = iters (fun ~stats g -> Burns.minimum_cycle_mean ~stats g) in
      let ko = iters (fun ~stats g -> Ko.minimum_cycle_mean ~stats g) in
      let yto = iters (fun ~stats g -> Yto.minimum_cycle_mean ~stats g) in
      let howard = iters (fun ~stats g -> Howard.minimum_cycle_mean ~stats g) in
      let ho = iters (fun ~stats g -> Ho.minimum_cycle_mean ~stats g) in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.1f" density;
          string_of_int (avg (fun s -> s.Stats.iterations) burns);
          string_of_int (avg (fun s -> s.Stats.iterations) ko);
          string_of_int (avg (fun s -> s.Stats.iterations) yto);
          string_of_int (avg (fun s -> s.Stats.iterations) howard);
          string_of_int (avg (fun s -> s.Stats.level) ho);
        ]
        :: !rows);
  Tables.print
    ~title:
      "E3 (§4.3): iterations to convergence — KO/YTO around n/2, Burns \
       fewer, Howard drastically few, HO's terminal level k << n"
    ~header:[ "n"; "m/n"; "Burns"; "KO"; "YTO"; "Howard"; "HO k" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E4: the Karp family work counts (§4.4)                              *)
(* ------------------------------------------------------------------ *)

let e4 cfg =
  let rows = ref [] in
  let karp_family g =
    let sk = Stats.create () and sd = Stats.create () and s2 = Stats.create () in
    ignore (Karp.minimum_cycle_mean ~stats:sk g);
    ignore (Dg.minimum_cycle_mean ~stats:sd g);
    ignore (Karp2.minimum_cycle_mean ~stats:s2 g);
    (sk.Stats.arcs_visited, sd.Stats.arcs_visited, s2.Stats.arcs_visited)
  in
  let sizes = List.filter (fun n -> table_words n <= memory_budget_words) cfg.sizes in
  List.iter
    (fun n ->
      List.iter
        (fun density ->
          let k, d, k2 =
            List.fold_left
              (fun (a, b, c) seed ->
                let ka, da, k2a = karp_family (instance ~n ~density ~seed) in
                (a + ka, b + da, c + k2a))
              (0, 0, 0) cfg.seeds
          in
          let s = List.length cfg.seeds in
          rows :=
            [
              "sprand";
              string_of_int n;
              Printf.sprintf "%.1f" density;
              string_of_int (k / s);
              string_of_int (d / s);
              Printf.sprintf "%.2f" (float_of_int d /. float_of_int k);
              Printf.sprintf "%.2f" (float_of_int k2 /. float_of_int k);
            ]
            :: !rows)
        [ 1.0; 3.0 ])
    sizes;
  (* circuits: DG's improvement is far better on circuits (§4.4) *)
  List.iter
    (fun (name, registers) ->
      if registers >= 100 && registers <= 2000 then begin
        let g = Circuit.benchmark name in
        let k, d, k2 = karp_family g in
        rows :=
          [
            name;
            string_of_int (Digraph.n g);
            Printf.sprintf "%.1f"
              (float_of_int (Digraph.m g) /. float_of_int (Digraph.n g));
            string_of_int k;
            string_of_int d;
            Printf.sprintf "%.2f" (float_of_int d /. float_of_int k);
            Printf.sprintf "%.2f" (float_of_int k2 /. float_of_int k);
          ]
          :: !rows
      end)
    cfg.circuits;
  Tables.print
    ~title:
      "E4 (§4.4): arcs visited by the Karp family — DG saves little on \
       dense SPRAND, a lot on circuits; Karp2 does ~2x Karp"
    ~header:[ "workload"; "n"; "m/n"; "Karp arcs"; "DG arcs"; "DG/Karp"; "Karp2/Karp" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E5: Table 2 — running times of all ten algorithms                   *)
(* ------------------------------------------------------------------ *)

let e5 cfg =
  Hashtbl.reset blown;
  let header =
    [ "n"; "m" ]
    @ List.map Registry.display_name Registry.all
  in
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun density ->
          let m = max n (int_of_float (Float.round (density *. float_of_int n))) in
          let cells =
            List.map
              (fun alg ->
                match run_cell cfg ~alg ~n ~density with
                | None -> "N/A"
                | Some ms -> Tables.fmt_ms ms)
              Registry.all
          in
          rows := ([ string_of_int n; string_of_int m ] @ cells) :: !rows)
        cfg.densities)
    cfg.sizes;
  Tables.print
    ~title:
      "E5 (Table 2): average running times in milliseconds on SPRAND \
       graphs (weights uniform in [1,10000])"
    ~header (List.rev !rows);
  print_endline
    "  expectation (paper): Howard fastest by a wide margin; HO second;\n\
    \  Lawler slowest; OA uncompetitive and erratic at density 1; Karp's\n\
    \  simplicity helps on small graphs but degrades with n; Karp2 ~ 2x \
     Karp.\n\
    \  N/A follows the paper's protocol: quadratic-space table too large,\n\
    \  or the algorithm blew the time budget on a smaller instance."

(* ------------------------------------------------------------------ *)
(* E6: the circuit suite (§3; data in the tech report)                 *)
(* ------------------------------------------------------------------ *)

let e6 cfg =
  let algs =
    Registry.[ Howard; Ho; Dg; Karp; Karp2; Burns; Ko; Yto; Lawler ]
  in
  let header =
    [ "circuit"; "regs"; "arcs"; "lambda*" ] @ List.map Registry.display_name algs
  in
  let rows = ref [] in
  List.iter
    (fun (name, _) ->
      let g = Circuit.benchmark name in
      let lambda, _ = Registry.minimum_cycle_mean Registry.Howard g in
      let cells =
        List.map
          (fun alg ->
            if needs_too_much_memory alg (Digraph.n g) then "N/A"
            else
              Tables.fmt_ms
                (Timing.time_ms (fun () ->
                     ignore (Registry.minimum_cycle_mean alg g))))
          algs
      in
      rows :=
        ([
           name;
           string_of_int (Digraph.n g);
           string_of_int (Digraph.m g);
           Ratio.to_string lambda;
         ]
        @ cells)
        :: !rows)
    cfg.circuits;
  Tables.print
    ~title:
      "E6 (§3): running times (ms) on the synthetic stand-ins for the \
       LGSynth'91 sequential circuits"
    ~header (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E7: Howard's iteration bound ablation (§2.5, §4.3)                  *)
(* ------------------------------------------------------------------ *)

let e7 cfg =
  let rows = ref [] in
  grid cfg (fun ~n ~density ->
      let iters =
        List.map
          (fun seed ->
            let g = instance ~n ~density ~seed in
            let s = Stats.create () in
            ignore (Howard.minimum_cycle_mean ~stats:s g);
            s.Stats.iterations)
          cfg.seeds
      in
      let fmean =
        float_of_int (List.fold_left ( + ) 0 iters)
        /. float_of_int (List.length iters)
      in
      let worst = List.fold_left max 0 iters in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.1f" density;
          Printf.sprintf "%.1f" fmean;
          string_of_int worst;
          Printf.sprintf "%.1f" (Float.log (float_of_int n));
        ]
        :: !rows);
  Tables.print
    ~title:
      "E7 (§4.3/§2.5): Howard's iterations vs the O(lg n) average-case \
       conjecture of Cochet-Terrasson et al."
    ~header:[ "n"; "m/n"; "avg iters"; "max iters"; "ln n" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E8: cost-to-time ratio algorithms (Table 1, rows 11-18)             *)
(* ------------------------------------------------------------------ *)

let e8 cfg =
  let sizes = List.filter (fun n -> n <= 2048) cfg.sizes in
  let rows = ref [] in
  List.iter
    (fun n ->
      let m = 2 * n in
      let mk seed = Sprand.generate ~seed ~n ~m ~transits:(1, 5) () in
      let timed solve =
        Timing.mean
          (List.map (fun seed ->
               let g = mk seed in
               Timing.time_ms ~reps:1 (fun () -> ignore (solve g)))
             cfg.seeds)
      in
      let t_howard = timed (Registry.minimum_cycle_ratio Registry.Howard) in
      let t_burns = timed (Registry.minimum_cycle_ratio Registry.Burns) in
      let t_lawler = timed (Registry.minimum_cycle_ratio Registry.Lawler) in
      let t_oa2 = timed (Registry.minimum_cycle_ratio Registry.Oa2) in
      let t_yto = timed (Registry.minimum_cycle_ratio Registry.Yto) in
      (* the Karp family only solves the ratio problem through the
         Hartmann-Orlin expansion: the instance grows to T ≈ 3m nodes *)
      let g0 = mk (List.hd cfg.seeds) in
      let total_t = Digraph.total_transit g0 in
      let expanded_n = total_t + Digraph.n g0 in
      let t_karp_exp =
        if table_words expanded_n > memory_budget_words then None
        else Some (timed (Registry.minimum_cycle_ratio Registry.Karp))
      in
      let t_ho_exp =
        if 2 * table_words expanded_n > memory_budget_words then None
        else Some (timed (Registry.minimum_cycle_ratio Registry.Ho))
      in
      (* agreement check across the native and expansion paths *)
      let l1, _ = Registry.minimum_cycle_ratio Registry.Howard g0 in
      let l2, _ = Registry.minimum_cycle_ratio Registry.Yto g0 in
      let l3, _ = Registry.minimum_cycle_ratio Registry.Karp2 g0 in
      assert (Ratio.equal l1 l2);
      assert (Ratio.equal l1 l3);
      let opt = function None -> "N/A" | Some t -> Tables.fmt_ms t in
      rows :=
        [
          string_of_int n;
          string_of_int m;
          string_of_int total_t;
          Tables.fmt_ms t_howard;
          Tables.fmt_ms t_burns;
          Tables.fmt_ms t_lawler;
          Tables.fmt_ms t_oa2;
          Tables.fmt_ms t_yto;
          opt t_karp_exp;
          opt t_ho_exp;
        ]
        :: !rows)
    sizes;
  Tables.print
    ~title:
      "E8 (Table 1 rows 11-18): minimum cost-to-time ratio — native \
       algorithms (Howard, Burns, Lawler, OA2, YTO) vs the Karp family \
       on the Hartmann-Orlin transit-time expansion (SPRAND, transit \
       times uniform in [1,5], density 2)"
    ~header:
      [ "n"; "m"; "T"; "Howard"; "Burns"; "Lawler"; "OA2"; "YTO";
        "Karp+exp"; "HO+exp" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E9: the improved variants announced in §5                           *)
(* ------------------------------------------------------------------ *)

let e9 cfg =
  let rows = ref [] in
  grid cfg (fun ~n ~density ->
      let measure f =
        let ss =
          List.map
            (fun seed ->
              let g = instance ~n ~density ~seed in
              let s = Stats.create () in
              f s g;
              s)
            cfg.seeds
        in
        ss
      in
      let avg f xs =
        float_of_int (List.fold_left (fun a s -> a + f s) 0 xs)
        /. float_of_int (List.length xs)
      in
      let lw = measure (fun s g -> ignore (Lawler.minimum_cycle_mean ~stats:s g)) in
      let lw' =
        measure (fun s g ->
            ignore (Lawler.minimum_cycle_mean ~stats:s ~improved:true g))
      in
      let hw_cheap =
        measure (fun s g ->
            ignore (Howard.minimum_cycle_mean ~stats:s ~init:`Cheapest_arc g))
      in
      let hw_first =
        measure (fun s g ->
            ignore (Howard.minimum_cycle_mean ~stats:s ~init:`First_arc g))
      in
      let hw_rand =
        measure (fun s g ->
            ignore (Howard.minimum_cycle_mean ~stats:s ~init:(`Random 7) g))
      in
      let oracle s = s.Stats.oracle_calls in
      let iters s = s.Stats.iterations in
      rows :=
        [
          string_of_int n;
          Printf.sprintf "%.1f" density;
          Printf.sprintf "%.1f" (avg oracle lw);
          Printf.sprintf "%.1f" (avg oracle lw');
          Printf.sprintf "%.1f" (avg iters hw_cheap);
          Printf.sprintf "%.1f" (avg iters hw_first);
          Printf.sprintf "%.1f" (avg iters hw_rand);
        ]
        :: !rows);
  Tables.print
    ~title:
      "E9 (§5): improved variants — Lawler with witness-tightened upper \
       bounds (oracle calls) and Howard under three initial policies \
       (iterations)"
    ~header:
      [ "n"; "m/n"; "Lawler orc"; "Lawler+ orc"; "How cheap"; "How first";
        "How rand" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E10: heap ablation for the parametric algorithms                    *)
(* ------------------------------------------------------------------ *)

let e10 cfg =
  let rows = ref [] in
  let kinds = [ ("fibonacci", `Fibonacci); ("binary", `Binary); ("pairing", `Pairing) ] in
  grid cfg (fun ~n ~density ->
      if density >= 2.0 then
        List.iter
          (fun variant ->
            let cells =
              List.concat_map
                (fun (_, kind) ->
                  let times = ref [] and ops = ref 0 in
                  List.iter
                    (fun seed ->
                      let g = instance ~n ~density ~seed in
                      let s = Stats.create () in
                      let dt =
                        Timing.time_ms ~reps:1 (fun () ->
                            ignore
                              (Parametric.minimum_cycle_mean ~stats:s
                                 ~heap:kind ~variant g))
                      in
                      times := dt :: !times;
                      ops := !ops + Heap_stats.total s.Stats.heap)
                    cfg.seeds;
                  [
                    Tables.fmt_ms (Timing.mean !times);
                    string_of_int (!ops / List.length cfg.seeds);
                  ])
                kinds
            in
            rows :=
              ([
                 (match variant with `Ko -> "KO" | `Yto -> "YTO");
                 string_of_int n;
                 Printf.sprintf "%.1f" density;
               ]
              @ cells)
              :: !rows)
          [ `Ko; `Yto ])
  ;
  Tables.print
    ~title:
      "E10: heap ablation for KO/YTO — Fibonacci (as in the paper's LEDA \
       setup) vs binary vs pairing heaps (time in ms / heap ops)"
    ~header:
      [ "variant"; "n"; "m/n"; "fib ms"; "fib ops"; "bin ms"; "bin ops";
        "pair ms"; "pair ops" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E11: engine throughput — parallel batch solve and cache behavior    *)
(* ------------------------------------------------------------------ *)

let e11 cfg =
  let n = match cfg.sizes with [] -> 256 | s :: _ -> min 512 s in
  let density = 2.0 in
  let n_requests = 24 in
  let spec i = Request.default_spec (Printf.sprintf "inst-%03d" i) in
  let distinct =
    List.init n_requests (fun i -> instance ~n ~density ~seed:(i + 1))
  in
  let rows = ref [] in
  (* distinct-instance workload: pure solve throughput across --jobs,
     cache disabled; response lines must be byte-identical to jobs=1 *)
  let base_ms = ref 0.0 in
  let base_lines = ref [] in
  List.iter
    (fun jobs ->
      let reqs =
        List.mapi (fun i g -> Request.make ~id:(i + 1) ~graph:g (spec i))
          distinct
      in
      let eng = Engine.create ~jobs ~cache_size:0 () in
      let t0 = Unix.gettimeofday () in
      let rs = Engine.run_batch eng reqs in
      let dt = 1000.0 *. (Unix.gettimeofday () -. t0) in
      Engine.shutdown eng;
      let lines = List.map (fun r -> Engine.response_line r) rs in
      if jobs = 1 then begin
        base_ms := dt;
        base_lines := lines
      end;
      rows :=
        [
          "distinct";
          string_of_int jobs;
          string_of_int n_requests;
          Tables.fmt_ms dt;
          Printf.sprintf "%.1f" (1000.0 *. float_of_int n_requests /. dt);
          Printf.sprintf "%.2fx" (!base_ms /. dt);
          "-";
          (if lines = !base_lines then "yes" else "NO");
        ]
        :: !rows)
    [ 1; 2; 4 ];
  (* repeated-instance workload: a small pool cycled many times through
     the LRU — the target regime is a >= 90% hit rate *)
  let pool = List.init 3 (fun i -> instance ~n ~density ~seed:(100 + i)) in
  let repeats = 30 in
  let reqs =
    List.init repeats (fun i ->
        let g = List.nth pool (i mod List.length pool) in
        Request.make ~id:(i + 1) ~graph:g
          { (spec (i mod List.length pool)) with Request.verify = true })
  in
  let eng = Engine.create ~jobs:1 ~cache_size:8 () in
  let t0 = Unix.gettimeofday () in
  let rs = Engine.run_batch eng reqs in
  let dt = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let tel = Engine.telemetry eng in
  Engine.shutdown eng;
  let all_certified =
    List.for_all
      (fun r ->
        match r.Engine.outcome with
        | Engine.Solved s -> s.certified
        | _ -> false)
      rs
  in
  rows :=
    [
      "repeated";
      "1";
      string_of_int repeats;
      Tables.fmt_ms dt;
      Printf.sprintf "%.1f" (1000.0 *. float_of_int repeats /. dt);
      "-";
      Printf.sprintf "%.2f" (Telemetry.hit_rate tel);
      (if all_certified then "yes" else "NO");
    ]
    :: !rows;
  Tables.print
    ~title:
      (Printf.sprintf
         "E11: engine throughput — batch of SPRAND n=%d m/n=%.1f across \
          --jobs (identical = responses byte-equal to jobs=1; for the \
          repeated workload, = every cached result re-certified)"
         n density)
    ~header:
      [ "workload"; "jobs"; "reqs"; "wall"; "req/s"; "speedup"; "hit-rate";
        "identical" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E12: perf probes for the kernel rewrite — Howard kernel throughput, *)
(* one-pass SCC partition vs repeated induced scans, parallel per-SCC  *)
(* solving.  --bench-json FILE additionally writes the numbers in      *)
(* machine-readable form (BENCH_pr2.json).                             *)
(* ------------------------------------------------------------------ *)

let bench_json_path : string option ref = ref None

(* stamped at the top level of every bench JSON file AND into every
   row: check_regress.ml reads the top-level value to decide whether
   jobs>1 timings are comparable across files, and the per-row copy
   keeps rows self-describing when they are quoted in isolation *)
let host_cores () = Domain.recommended_domain_count ()

let e12 _cfg =
  (* a) Howard kernel ns/op per family, scratch reused across reps *)
  let scratch = Howard.create_scratch () in
  let kernel =
    List.map
      (fun (family, g) ->
        let m = Digraph.m g in
        let ms =
          Timing.time_ms ~reps:5 (fun () ->
              ignore (Howard.minimum_cycle_mean ~scratch g))
        in
        (family, Digraph.n g, m, ms, ms *. 1e6 /. float_of_int m))
      [
        ("sprand", instance ~n:1024 ~density:3.0 ~seed:1);
        ("ring", Families.ring 4096);
        ("long_critical", Families.long_critical 512);
      ]
  in
  Tables.print
    ~title:
      "E12a: Howard kernel (zero-allocation steady state, scratch reused \
       across solves)"
    ~header:[ "family"; "n"; "m"; "ms/solve"; "ns/arc" ]
    (List.map
       (fun (family, n, m, ms, ns) ->
         [
           family; string_of_int n; string_of_int m; Tables.fmt_ms ms;
           Printf.sprintf "%.0f" ns;
         ])
       kernel);
  (* b) one O(n+m) partition sweep vs the per-component induced scans
     it replaced, on the many-SCC stress family *)
  let components = 64 and size = 96 in
  let gp = Families.many_scc ~components ~size () in
  let scc = Scc.compute gp in
  let one_pass_ms =
    Timing.time_ms ~reps:5 (fun () -> ignore (Scc.partition gp scc))
  in
  let induced_ms =
    Timing.time_ms ~reps:5 (fun () ->
        List.iter
          (fun members ->
            ignore (Digraph.induced gp (List.sort compare members)))
          (Scc.nontrivial_components gp scc))
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "E12b: SCC subproblem extraction on many_scc (%d components x %d \
          nodes)" components size)
    ~header:[ "method"; "ms"; "speedup" ]
    [
      [ "per-component induced"; Tables.fmt_ms induced_ms; "1.00x" ];
      [
        "one-pass partition"; Tables.fmt_ms one_pass_ms;
        Printf.sprintf "%.2fx" (induced_ms /. one_pass_ms);
      ];
    ];
  (* c) parallel per-SCC solving: wall time across --jobs, with the
     determinism guarantee checked on every run *)
  let base = Option.get (Solver.minimum_cycle_mean ~jobs:1 gp) in
  let parallel =
    List.map
      (fun jobs ->
        let ms =
          Timing.time_ms ~reps:3 (fun () ->
              ignore (Solver.minimum_cycle_mean ~jobs gp))
        in
        let r = Option.get (Solver.minimum_cycle_mean ~jobs gp) in
        let identical =
          Ratio.equal r.Solver.lambda base.Solver.lambda
          && r.Solver.cycle = base.Solver.cycle
          && r.Solver.stats = base.Solver.stats
        in
        (jobs, ms, identical))
      [ 1; 2; 4; 8 ]
  in
  let serial_ms = match parallel with (_, ms, _) :: _ -> ms | [] -> 0.0 in
  Tables.print
    ~title:
      (Printf.sprintf
         "E12c: Solver.solve ~jobs on many_scc (%d components; identical = \
          report bit-equal to jobs=1; host has %d core(s))"
         components
         (Domain.recommended_domain_count ()))
    ~header:[ "jobs"; "ms"; "speedup"; "identical" ]
    (List.map
       (fun (jobs, ms, identical) ->
         [
           string_of_int jobs; Tables.fmt_ms ms;
           Printf.sprintf "%.2fx" (serial_ms /. ms);
           (if identical then "yes" else "NO");
         ])
       parallel);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E12\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"howard_kernel\": [\n";
    List.iteri
      (fun i (family, n, m, ms, ns) ->
        out
          "    {\"family\": %S, \"n\": %d, \"m\": %d, \"host_cores\": %d, \
           \"ms_per_solve\": %.4f, \"ns_per_arc\": %.1f}%s\n"
          family n m cores ms ns
          (if i < List.length kernel - 1 then "," else ""))
      kernel;
    out "  ],\n";
    out
      "  \"scc_partition\": {\"graph\": \"many_scc %dx%d\", \"n\": %d, \
       \"m\": %d, \"host_cores\": %d, \"one_pass_ms\": %.4f, \
       \"induced_scan_ms\": %.4f, \"speedup\": %.2f},\n"
      components size (Digraph.n gp) (Digraph.m gp) cores one_pass_ms
      induced_ms
      (induced_ms /. one_pass_ms);
    out "  \"parallel_solve\": [\n";
    List.iteri
      (fun i (jobs, ms, identical) ->
        out
          "    {\"jobs\": %d, \"host_cores\": %d, \"ms\": %.4f, \
           \"speedup\": %.2f, \"identical\": %b}%s\n"
          jobs cores ms (serial_ms /. ms) identical
          (if i < List.length parallel - 1 then "," else ""))
      parallel;
    out "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E13: dynamic sessions — warm incremental re-solve vs cold solve.    *)
(* a) single-arc weight edits on SPRAND: median session edit+query vs  *)
(* a cold Solver.solve of the same edited graph.  b) edit locality on  *)
(* many_scc: the fewer components a round of edits touches, the fewer  *)
(* the session re-solves.  --bench-json FILE writes the numbers in     *)
(* machine-readable form (BENCH_pr3.json).                             *)
(* ------------------------------------------------------------------ *)

let e13 _cfg =
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* a) SPRAND single-arc edits: the steady state of an optimization
     loop — one weight changes, the optimum is re-queried *)
  let edits = 32 in
  let sprand =
    List.map
      (fun n ->
        let g = instance ~n ~density:3.0 ~seed:1 in
        let session = Dyn.create g in
        ignore (Dyn.query session);
        let m = Digraph.m g in
        let warm = Array.make edits 0.0 and cold = Array.make edits 0.0 in
        (* warm pass: the session absorbs each edit and re-answers.
           Recorded (arc, weight) pairs drive the identical cold pass
           below — the two passes run separately so the cold client's
           per-edit graph rebuilds don't leak GC work into the warm
           timings (or vice versa). *)
        let applied = Array.make edits (0, 0) in
        for i = 0 to edits - 1 do
          let a = i * 7919 mod m in
          let w = Dyn.arc_weight session a in
          let w' = if w > 1 then w - 1 else w + 1 in
          applied.(i) <- (a, w');
          let t0 = Unix.gettimeofday () in
          Dyn.set_weight session a w';
          ignore (Dyn.query session);
          warm.(i) <- 1000.0 *. (Unix.gettimeofday () -. t0)
        done;
        Dyn.close session;
        (* cold pass: an immutable graph the client must relabel
           (map_weights, the cheapest rebuild) before every re-solve *)
        let cold_g = ref g in
        for i = 0 to edits - 1 do
          let a, w' = applied.(i) in
          let t0 = Unix.gettimeofday () in
          let prev = !cold_g in
          cold_g :=
            Digraph.map_weights prev (fun b ->
                if b = a then w' else Digraph.weight prev b);
          ignore (Solver.minimum_cycle_mean !cold_g);
          cold.(i) <- 1000.0 *. (Unix.gettimeofday () -. t0)
        done;
        (n, m, median warm, median cold))
      [ 1024; 4096 ]
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "E13a: dynamic session vs cold solve, %d single-arc weight edits \
          on SPRAND m/n=3.0 (warm = set_weight + query, cold = relabel + \
          Solver.solve of the edited graph; medians)"
         edits)
    ~header:[ "n"; "m"; "warm ms"; "cold ms"; "speedup" ]
    (List.map
       (fun (n, m, wm, cm) ->
         [
           string_of_int n; string_of_int m; Tables.fmt_ms wm;
           Tables.fmt_ms cm; Printf.sprintf "%.2fx" (cm /. wm);
         ])
       sprand);
  (* b) edit locality on many_scc: one round = one weight edit in each
     of k distinct components, then one query; the session re-solves
     exactly the k dirtied components *)
  let components = 64 and size = 32 in
  let gp = Families.many_scc ~components ~size () in
  let session = Dyn.create gp in
  ignore (Dyn.query session);
  let m = Digraph.m gp in
  (* one intra-block arc per block: editing it dirties that SCC only *)
  let block_arc = Array.make components (-1) in
  for a = 0 to m - 1 do
    let b = Dyn.arc_src session a / size in
    if b = Dyn.arc_dst session a / size && block_arc.(b) < 0 then
      block_arc.(b) <- a
  done;
  let cold_ms =
    Timing.time_ms ~reps:3 (fun () ->
        ignore (Solver.minimum_cycle_mean gp))
  in
  let rounds = 8 in
  let locality =
    List.map
      (fun k ->
        let ms = Array.make rounds 0.0 in
        let resolved = ref 0 in
        for r = 0 to rounds - 1 do
          let t0 = Unix.gettimeofday () in
          for j = 0 to k - 1 do
            let a = block_arc.(j * (components / k)) in
            Dyn.set_weight session a (Dyn.arc_weight session a + ((r land 1 * 2) - 1))
          done;
          (match Dyn.query session with
          | Some rep -> resolved := rep.Dyn.resolved
          | None -> ());
          ms.(r) <- 1000.0 *. (Unix.gettimeofday () -. t0)
        done;
        (k, !resolved, median ms))
      [ 1; 4; 16; 64 ]
  in
  Dyn.close session;
  Tables.print
    ~title:
      (Printf.sprintf
         "E13b: edit locality on many_scc (%d components x %d nodes): k \
          edits in k distinct components per round, then one query \
          (cold solve: %s)"
         components size (Tables.fmt_ms cold_ms))
    ~header:[ "k"; "resolved"; "ms/round"; "speedup vs cold" ]
    (List.map
       (fun (k, resolved, ms) ->
         [
           string_of_int k; string_of_int resolved; Tables.fmt_ms ms;
           Printf.sprintf "%.2fx" (cold_ms /. ms);
         ])
       locality);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E13\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"sprand_single_edit\": [\n";
    List.iteri
      (fun i (n, m, wm, cm) ->
        out
          "    {\"n\": %d, \"m\": %d, \"edits\": %d, \"host_cores\": %d, \
           \"warm_ms_median\": %.4f, \"cold_ms_median\": %.4f, \
           \"speedup\": %.2f}%s\n"
          n m edits cores wm cm (cm /. wm)
          (if i < List.length sprand - 1 then "," else ""))
      sprand;
    out "  ],\n";
    out
      "  \"edit_locality\": {\"graph\": \"many_scc %dx%d\", \"host_cores\": \
       %d, \"cold_ms\": %.4f, \"rounds\": [\n"
      components size cores cold_ms;
    List.iteri
      (fun i (k, resolved, ms) ->
        out
          "    {\"components_edited\": %d, \"resolved\": %d, \"host_cores\": \
           %d, \"ms\": %.4f, \"speedup\": %.2f}%s\n"
          k resolved cores ms (cold_ms /. ms)
          (if i < List.length locality - 1 then "," else ""))
      locality;
    out "  ]}\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E14: chunked improvement sweep inside one giant SCC.  SPRAND is     *)
(* strongly connected by construction, so Solver's per-component       *)
(* fan-out has exactly one task and any scaling across --jobs comes    *)
(* from Howard's intra-SCC sweep alone.  The n=1024 row (m=3072) sits  *)
(* below the arcs-per-chunk grain (OCR_CHUNK_ARCS, default 4096) on    *)
(* purpose: it shows the sweep staying serial where fan-out overhead   *)
(* would dominate.  --bench-json FILE writes the numbers per job       *)
(* count with host_cores stamped (BENCH_pr7.json); the CI multicore    *)
(* leg gates jobs=4 speedup >= 1.2x on >=4-core hosts from this file.  *)
(* ------------------------------------------------------------------ *)

let e14 _cfg =
  let jobs_list = [ 1; 2; 4; 8 ] in
  let giant =
    List.map
      (fun n ->
        let g = instance ~n ~density:3.0 ~seed:1 in
        let m = Digraph.m g in
        let base =
          Option.get (Solver.solve ~algorithm:Registry.Howard ~jobs:1 g)
        in
        let per_jobs =
          List.map
            (fun jobs ->
              (* the pool is created outside the timed region: E14
                 measures the sweep, not domain spawns *)
              let pool = Executor.create ~jobs in
              let ms =
                Timing.time_ms ~reps:5 (fun () ->
                    ignore (Solver.solve ~algorithm:Registry.Howard ~pool g))
              in
              let r =
                Option.get (Solver.solve ~algorithm:Registry.Howard ~pool g)
              in
              Executor.shutdown pool;
              let identical =
                Ratio.equal r.Solver.lambda base.Solver.lambda
                && r.Solver.cycle = base.Solver.cycle
                && r.Solver.stats = base.Solver.stats
              in
              (jobs, ms, identical))
            jobs_list
        in
        (n, m, per_jobs))
      [ 1024; 4096 ]
  in
  Tables.print
    ~title:
      (Printf.sprintf
         "E14: Howard solve of a single giant SCC (SPRAND m/n=3.0) across \
          --jobs; all scaling is the chunked improvement sweep (identical \
          = report bit-equal to jobs=1; host has %d core(s))"
         (Domain.recommended_domain_count ()))
    ~header:[ "n"; "m"; "jobs"; "ms/solve"; "speedup"; "identical" ]
    (List.concat_map
       (fun (n, m, per_jobs) ->
         let serial_ms =
           match per_jobs with (_, ms, _) :: _ -> ms | [] -> 0.0
         in
         List.map
           (fun (jobs, ms, identical) ->
             [
               string_of_int n; string_of_int m; string_of_int jobs;
               Tables.fmt_ms ms;
               Printf.sprintf "%.2fx" (serial_ms /. ms);
               (if identical then "yes" else "NO");
             ])
           per_jobs)
       giant);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E14\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"chunk_arcs\": %d,\n" (Executor.chunk_arcs ());
    out "  \"giant_scc_sweep\": [\n";
    let rows =
      List.concat_map
        (fun (n, m, per_jobs) ->
          let serial_ms =
            match per_jobs with (_, ms, _) :: _ -> ms | [] -> 0.0
          in
          List.map
            (fun (jobs, ms, identical) -> (n, m, jobs, ms, serial_ms, identical))
            per_jobs)
        giant
    in
    List.iteri
      (fun i (n, m, jobs, ms, serial_ms, identical) ->
        out
          "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": %d, \
           \"host_cores\": %d, \"ms_per_solve\": %.4f, \"speedup\": %.2f, \
           \"identical\": %b}%s\n"
          n m jobs cores ms (serial_ms /. ms) identical
          (if i < List.length rows - 1 then "," else ""))
      rows;
    out "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E15: the cost of observability.  The E14 single-giant-SCC workload  *)
(* solved twice per size — tracing disabled (the production default;   *)
(* every record call is a taken branch) and tracing enabled with a     *)
(* recording ring.  The disabled rows are the perf-gated ones: they    *)
(* assert the instrumented kernel costs nothing when off.  The         *)
(* enabled rows report the recording overhead, which documents the     *)
(* <5% budget but is not gated (ring writes are allocation-free yet    *)
(* clock-heavy, and CI clocks are noisy).  [identical] checks the      *)
(* tracing run's report stays bit-equal to the untraced one.           *)
(* --bench-json FILE writes the numbers (BENCH_pr5.json).              *)
(* ------------------------------------------------------------------ *)

let e15 _cfg =
  let solve g = Option.get (Solver.solve ~algorithm:Registry.Howard ~jobs:1 g) in
  let rows =
    List.map
      (fun n ->
        let g = instance ~n ~density:3.0 ~seed:1 in
        let m = Digraph.m g in
        let base = solve g in
        let off_ms = Timing.time_ms ~reps:5 (fun () -> ignore (solve g)) in
        Trace.configure ~capacity:65536 ();
        Obs.enable ();
        let on_ms, traced =
          Fun.protect
            ~finally:(fun () ->
              Obs.disable ();
              Trace.configure ())
            (fun () ->
              let ms = Timing.time_ms ~reps:5 (fun () -> ignore (solve g)) in
              (ms, solve g))
        in
        let identical =
          Ratio.equal traced.Solver.lambda base.Solver.lambda
          && traced.Solver.cycle = base.Solver.cycle
          && traced.Solver.stats = base.Solver.stats
        in
        let overhead_pct = (on_ms -. off_ms) /. off_ms *. 100.0 in
        (n, m, off_ms, on_ms, overhead_pct, identical))
      [ 1024; 4096 ]
  in
  Tables.print
    ~title:
      "E15: tracing overhead on the E14 single-giant-SCC Howard solve \
       (jobs=1); off = global switch disabled, on = spans and counters \
       recorded into a 65536-record ring (identical = traced report \
       bit-equal to untraced)"
    ~header:[ "n"; "m"; "off ms/solve"; "on ms/solve"; "overhead"; "identical" ]
    (List.map
       (fun (n, m, off_ms, on_ms, pct, identical) ->
         [
           string_of_int n; string_of_int m; Tables.fmt_ms off_ms;
           Tables.fmt_ms on_ms;
           Printf.sprintf "%+.1f%%" pct;
           (if identical then "yes" else "NO");
         ])
       rows);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E15\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"tracing_overhead\": [\n";
    List.iteri
      (fun i (n, m, off_ms, on_ms, pct, identical) ->
        (* one off-row and one on-row per size, split by the "trace"
           discriminator: the off rows carry the gated ms_per_solve,
           the on rows only ungated informational metrics *)
        out
          "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
           \"host_cores\": %d, \"trace\": \"off\", \"ms_per_solve\": %.4f},\n"
          n m cores off_ms;
        out
          "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
           \"host_cores\": %d, \"trace\": \"on\", \"traced_ms_per_solve\": \
           %.4f, \"overhead_pct\": %.1f, \"identical\": %b}%s\n"
          n m cores on_ms pct identical
          (if i < List.length rows - 1 then "," else ""))
      rows;
    out "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

(* E16: cluster serving.  The same one-shot request batch pushed       *)
(* through `ocr serve` (single process) and `ocr cluster` at           *)
(* workers = 1, 2, 4 — ms/request measures the router's multiplexing   *)
(* and sharding overhead (workers=1 vs serve) and the fan-out gain     *)
(* (workers=2,4); [identical] checks the response multiset matches     *)
(* serve exactly, including the cached= flags (fingerprint sharding    *)
(* gives each graph exactly one cold miss cluster-wide, like one       *)
(* process does).  A second scenario wedges nothing but floods one     *)
(* worker (queue-depth 4) and reports the shed rate — informational,   *)
(* not gated, since it depends on drain speed.  Needs the built ocr    *)
(* binary: $OCR_BIN, or the dune default path, else the experiment     *)
(* skips.  --bench-json FILE writes the numbers (BENCH_pr6.json).      *)
(* ------------------------------------------------------------------ *)

let e16 _cfg =
  let ocr_bin =
    match Sys.getenv_opt "OCR_BIN" with
    | Some p when Sys.file_exists p -> Some p
    | Some p ->
      Printf.printf "E16: $OCR_BIN=%s not found\n" p;
      None
    | None ->
      let dflt = "_build/default/bin/main.exe" in
      if Sys.file_exists dflt then Some dflt else None
  in
  match ocr_bin with
  | None ->
    print_endline
      "E16: skipped (no ocr binary; build bin/ or set $OCR_BIN)"
  | Some bin ->
    let n = 512 and density = 3.0 and pool = 8 and reps = 200 in
    let dir = Filename.temp_file "ocr_e16_" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let graphs =
      List.init pool (fun i ->
          let g = instance ~n ~density ~seed:(i + 1) in
          let path = Filename.concat dir (Printf.sprintf "g%d.ocr" i) in
          Graph_io.write_file path g;
          (path, Digraph.m g))
    in
    let m = snd (List.hd graphs) in
    let batch =
      List.init reps (fun i -> fst (List.nth graphs (i mod pool)))
    in
    (* one warmed, timed pass through a serving subprocess: spawn, one
       request per graph to absorb startup and cold solves, then the
       timed batch (one response line per request line, so a plain
       write-all / read-all is deadlock-free at this size) *)
    let run_server argv =
      let ic, oc =
        Unix.open_process_args bin (Array.of_list (bin :: argv))
      in
      let ask lines =
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        flush oc;
        List.map (fun _ -> input_line ic) lines
      in
      ignore (ask (List.map fst graphs));
      let t0 = Unix.gettimeofday () in
      let responses = ask batch in
      let dt_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      output_string oc "quit\n";
      flush oc;
      ignore (Unix.close_process (ic, oc));
      (dt_ms /. float_of_int reps, responses)
    in
    let ms_serve, ref_responses = run_server [ "serve" ] in
    let cluster_rows =
      List.map
        (fun workers ->
          (* the whole batch is written before the first read, so the
             queue bound must exceed it — admission control is the
             overload scenario's subject, not this one's *)
          let ms, responses =
            run_server
              [
                "cluster"; "--workers"; string_of_int workers;
                "--queue-depth"; string_of_int (2 * reps);
              ]
          in
          let identical =
            List.sort compare responses = List.sort compare ref_responses
          in
          (workers, ms, identical))
        [ 1; 2; 4 ]
    in
    (* overload: every request hits the same graph, hence one worker;
       with its queue bounded at 4 most of the flood is shed *)
    let overload_reqs = 300 in
    let shed =
      let ic, oc =
        Unix.open_process_args bin
          [| bin; "cluster"; "--workers"; "1"; "--queue-depth"; "4" |]
      in
      let g0 = fst (List.hd graphs) in
      for _ = 1 to overload_reqs do
        output_string oc (g0 ^ "\n")
      done;
      output_string oc "quit\n";
      flush oc;
      let shed = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if
             String.length line > 0
             && line.[0] = '{'
             && String.length line >= 21
             && String.sub line 0 21 = {|{"ok":false,"err":"ov|}
           then incr shed
         done
       with End_of_file -> ());
      ignore (Unix.close_process (ic, oc));
      !shed
    in
    let shed_rate = 100.0 *. float_of_int shed /. float_of_int overload_reqs in
    List.iter (fun (p, _) -> Sys.remove p) graphs;
    Unix.rmdir dir;
    Tables.print
      ~title:
        (Printf.sprintf
           "E16: cluster serving, %d requests over %d sprand graphs \
            (n=%d, m=%d); serve = single process baseline (identical = \
            response multiset matches serve); overload = %d requests \
            of one graph at queue-depth 4"
           reps pool n m overload_reqs)
      ~header:[ "server"; "workers"; "ms/req"; "identical" ]
      (([ "serve"; "1"; Tables.fmt_ms ms_serve; "-" ]
       :: List.map
            (fun (w, ms, identical) ->
              [
                "cluster"; string_of_int w; Tables.fmt_ms ms;
                (if identical then "yes" else "NO");
              ])
            cluster_rows)
      @ [ [ "overload"; "1"; Printf.sprintf "%.0f%% shed" shed_rate; "-" ] ]);
    match !bench_json_path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      let out fmt = Printf.fprintf oc fmt in
      let cores = host_cores () in
      out "{\n  \"experiment\": \"E16\",\n";
      out "  \"host_cores\": %d,\n" cores;
      out "  \"cluster_throughput\": [\n";
      out
        "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
         \"host_cores\": %d, \"cluster\": \"serve\", \"workers\": 0, \
         \"requests\": %d, \"ms_per_req\": %.4f},\n"
        n m cores reps ms_serve;
      List.iter
        (fun (w, ms, identical) ->
          out
            "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
             \"host_cores\": %d, \"cluster\": \"cluster\", \"workers\": %d, \
             \"requests\": %d, \"ms_per_req\": %.4f, \"identical\": %b},\n"
            n m cores w reps ms identical)
        cluster_rows;
      out
        "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
         \"host_cores\": %d, \"cluster\": \"overload\", \"workers\": 1, \
         \"requests\": %d, \"shed_rate_pct\": %.1f}\n"
        n m cores overload_reqs shed_rate;
      out "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" path

(* E18: the exact-rational lane vs the float portfolio.  Every row    *)
(* solves the same instance twice — Howard (the portfolio champion)   *)
(* and the Stern–Brocot lane, whose λ comes purely from integer       *)
(* negative-cycle probes — then cross-checks the two through          *)
(* Verify.rational_certificate: the certificate recomputed from each  *)
(* witness cycle's integer sums must be the same rational bit for     *)
(* bit, and the float rendering must sit within 1 ulp of it.  The     *)
(* [exact_matches_float] flag gates in CI at zero tolerance, like the *)
(* identical flags: a false is an arithmetic bug, not noise.  probes  *)
(* counts the lane's Bellman–Ford invocations (the log-bounded tree   *)
(* descent).  --bench-json FILE writes the rows (BENCH_pr9.json).     *)
(* ------------------------------------------------------------------ *)

let e18 cfg =
  let problems =
    [
      ( "mean", Solver.Cycle_mean,
        (fun ~n ~seed -> instance ~n ~density:3.0 ~seed),
        (fun g -> Registry.minimum_cycle_mean Registry.Howard g),
        fun ~stats g -> Stern_brocot.minimum_cycle_mean ~stats g );
      ( "ratio", Solver.Cycle_ratio,
        (fun ~n ~seed ->
          Sprand.generate ~seed ~n ~m:(3 * n) ~transits:(1, 5) ()),
        (fun g -> Registry.minimum_cycle_ratio Registry.Howard g),
        fun ~stats g -> Stern_brocot.minimum_cycle_ratio ~stats g );
    ]
  in
  let rows =
    List.concat_map
      (fun (prob_name, problem, gen, float_solve, exact_solve) ->
        List.map
          (fun n ->
            let per_seed =
              List.map
                (fun seed ->
                  let g = gen ~n ~seed in
                  let float_ms =
                    Timing.time_ms ~reps:3 (fun () -> ignore (float_solve g))
                  in
                  let s = Stats.create () in
                  let exact_ms =
                    Timing.time_ms ~reps:3 (fun () ->
                        ignore (exact_solve ~stats:s g))
                  in
                  Stats.reset s;
                  let lf, cf = float_solve g in
                  let le, ce = exact_solve ~stats:s g in
                  let cert c lambda =
                    Verify.rational_certificate ~problem g lambda c
                  in
                  let matches =
                    match (cert cf lf, cert ce le) with
                    | Ok a, Ok b -> Ratio.equal a b && Ratio.equal a le
                    | _ -> false
                  in
                  (Digraph.m g, float_ms, exact_ms, s.Stats.iterations,
                   matches))
                cfg.seeds
            in
            let m =
              match per_seed with (m, _, _, _, _) :: _ -> m | [] -> 0
            in
            let mean f = Timing.mean (List.map f per_seed) in
            let float_ms = mean (fun (_, f, _, _, _) -> f) in
            let exact_ms = mean (fun (_, _, e, _, _) -> e) in
            let probes =
              List.fold_left (fun acc (_, _, _, p, _) -> acc + p) 0 per_seed
              / List.length per_seed
            in
            let matches =
              List.for_all (fun (_, _, _, _, ok) -> ok) per_seed
            in
            (prob_name, n, m, float_ms, exact_ms, probes, matches))
          cfg.sizes)
      problems
  in
  Tables.print
    ~title:
      "E18: float portfolio (Howard) vs the Stern-Brocot exact lane on \
       SPRAND (mean: unit transits; ratio: transits uniform in [1,5]); \
       probes = integer negative-cycle tests; exact=float = both \
       witnesses certify to the same rational, float within 1 ulp"
    ~header:
      [ "problem"; "n"; "m"; "float ms"; "exact ms"; "slowdown"; "probes";
        "exact=float" ]
    (List.map
       (fun (prob, n, m, float_ms, exact_ms, probes, matches) ->
         [
           prob; string_of_int n; string_of_int m; Tables.fmt_ms float_ms;
           Tables.fmt_ms exact_ms;
           Printf.sprintf "%.2fx" (exact_ms /. float_ms);
           string_of_int probes;
           (if matches then "yes" else "NO");
         ])
       rows);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E18\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"exact_vs_float\": [\n";
    List.iteri
      (fun i (prob, n, m, float_ms, exact_ms, probes, matches) ->
        out
          "    {\"family\": \"sprand\", \"problem\": %S, \"n\": %d, \
           \"m\": %d, \"jobs\": 1, \"host_cores\": %d, \"float_ms\": %.4f, \
           \"exact_ms\": %.4f, \"slowdown\": %.2f, \"probes\": %d, \
           \"exact_matches_float\": %b}%s\n"
          prob n m cores float_ms exact_ms (exact_ms /. float_ms) probes
          matches
          (if i < List.length rows - 1 then "," else ""))
      rows;
    out "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

(* E19: the observability tax on the cluster path.  E16's batch (200   *)
(* one-shot requests over 8 sprand graphs) through a 2-worker cluster  *)
(* twice: once dark, once with --trace-dir and --access-log live —    *)
(* per-process trace rings in router and workers, trace ids on every   *)
(* forwarded request line, one access-log NDJSON line per request.     *)
(* ms/req of the dark run is the gated baseline; overhead_pct is the   *)
(* tax (informational, like E15's: absolute CI timings are noisy, the  *)
(* <5% promise is checked on the recording host).  [identical] checks  *)
(* the traced run's response multiset matches the dark run exactly,    *)
(* [access_complete] that the log holds one line per admitted          *)
(* request.  Needs the built ocr binary like E16; rows stamp           *)
(* host_cores and an "obs" discriminator.                              *)
(* ------------------------------------------------------------------ *)

let e19 _cfg =
  let ocr_bin =
    match Sys.getenv_opt "OCR_BIN" with
    | Some p when Sys.file_exists p -> Some p
    | Some p ->
      Printf.printf "E19: $OCR_BIN=%s not found\n" p;
      None
    | None ->
      let dflt = "_build/default/bin/main.exe" in
      if Sys.file_exists dflt then Some dflt else None
  in
  match ocr_bin with
  | None ->
    print_endline
      "E19: skipped (no ocr binary; build bin/ or set $OCR_BIN)"
  | Some bin ->
    let n = 512 and density = 3.0 and pool = 8 and reps = 200
    and workers = 2 in
    let dir = Filename.temp_file "ocr_e19_" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let graphs =
      List.init pool (fun i ->
          let g = instance ~n ~density ~seed:(i + 1) in
          let path = Filename.concat dir (Printf.sprintf "g%d.ocr" i) in
          Graph_io.write_file path g;
          (path, Digraph.m g))
    in
    let m = snd (List.hd graphs) in
    let batch =
      List.init reps (fun i -> fst (List.nth graphs (i mod pool)))
    in
    (* E16's warmed pass: spawn, one request per graph to absorb
       startup and cold solves, then the timed batch *)
    let run_cluster extra =
      let argv =
        [
          "cluster"; "--workers"; string_of_int workers; "--queue-depth";
          string_of_int (2 * reps);
        ]
        @ extra
      in
      let ic, oc =
        Unix.open_process_args bin (Array.of_list (bin :: argv))
      in
      let ask lines =
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        flush oc;
        List.map (fun _ -> input_line ic) lines
      in
      ignore (ask (List.map fst graphs));
      let t0 = Unix.gettimeofday () in
      let responses = ask batch in
      let dt_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      output_string oc "quit\n";
      flush oc;
      ignore (Unix.close_process (ic, oc));
      (dt_ms /. float_of_int reps, responses)
    in
    let ms_off, ref_responses = run_cluster [] in
    let trace_dir = Filename.concat dir "traces" in
    Unix.mkdir trace_dir 0o700;
    let access = Filename.concat dir "access.ndjson" in
    let ms_on, responses =
      run_cluster [ "--trace-dir"; trace_dir; "--access-log"; access ]
    in
    let identical =
      List.sort compare responses = List.sort compare ref_responses
    in
    let access_lines =
      let ic = open_in access in
      let k = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr k
         done
       with End_of_file -> ());
      close_in ic;
      !k
    in
    (* the warm-up pass is admitted traffic too: pool + reps lines *)
    let access_complete = access_lines = pool + reps in
    let overhead_pct = 100.0 *. (ms_on -. ms_off) /. ms_off in
    List.iter (fun (p, _) -> Sys.remove p) graphs;
    Sys.remove access;
    Array.iter
      (fun f -> Sys.remove (Filename.concat trace_dir f))
      (Sys.readdir trace_dir);
    Unix.rmdir trace_dir;
    Unix.rmdir dir;
    Tables.print
      ~title:
        (Printf.sprintf
           "E19: tracing + access-log tax on the cluster, %d requests \
            over %d sprand graphs (n=%d, m=%d) at workers=%d; identical \
            = traced response multiset matches the dark run; access = \
            one log line per admitted request"
           reps pool n m workers)
      ~header:[ "obs"; "workers"; "ms/req"; "overhead"; "identical"; "access" ]
      [
        [ "off"; string_of_int workers; Tables.fmt_ms ms_off; "-"; "-"; "-" ];
        [
          "on"; string_of_int workers; Tables.fmt_ms ms_on;
          Printf.sprintf "%+.1f%%" overhead_pct;
          (if identical then "yes" else "NO");
          (if access_complete then Printf.sprintf "%d/%d" access_lines
                                     (pool + reps)
           else Printf.sprintf "%d/%d MISSING" access_lines (pool + reps));
        ];
      ];
    match !bench_json_path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      let out fmt = Printf.fprintf oc fmt in
      let cores = host_cores () in
      out "{\n  \"experiment\": \"E19\",\n";
      out "  \"host_cores\": %d,\n" cores;
      out "  \"cluster_observability\": [\n";
      out
        "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
         \"host_cores\": %d, \"workers\": %d, \"obs\": \"off\", \
         \"requests\": %d, \"ms_per_req\": %.4f},\n"
        n m cores workers reps ms_off;
      out
        "    {\"family\": \"sprand\", \"n\": %d, \"m\": %d, \"jobs\": 1, \
         \"host_cores\": %d, \"workers\": %d, \"obs\": \"on\", \
         \"requests\": %d, \"traced_ms_per_req\": %.4f, \
         \"overhead_pct\": %.1f, \"identical\": %b, \
         \"access_complete\": %b}\n"
        n m cores workers reps ms_on overhead_pct identical access_complete;
      out "  ]\n}\n";
      close_out oc;
      Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E20: the layers around the kernel — Graph_io.load on both formats, *)
(* Scc.compute, Scc.partition and the fingerprint — against the        *)
(* implementations they replaced (the line-splitting parsers, the      *)
(* Vec-based Tarjan, the copying partition and the chained hash), on   *)
(* SPRAND (one SCC: the shared-graph partition) and many_scc (the      *)
(* copying path).  identical = the loaded graph round-trips to the     *)
(* file's bytes and equals the reference parse, the component ids      *)
(* equal the reference Tarjan's, every subproblem equals               *)
(* Digraph.induced, equal structures fingerprint equal, and a session's *)
(* fingerprint equals its snapshot's through a scripted edit sequence. *)
(* --bench-json FILE writes BENCH_pr23.json's shape.                   *)
(* ------------------------------------------------------------------ *)

(* Per-call milliseconds of [f], run [batch] times per sample. *)
let time_batch_ms ~batch f =
  Timing.time_ms ~reps:5 (fun () ->
      for i = 1 to batch do
        f i
      done)
  /. float_of_int batch

(* [Dyn.fingerprint s = Fingerprint.of_graph (Dyn.graph s)] after every
   step of a fixed script of all four update kinds, re-partitioning
   (as a query would) every fourth step. *)
let dyn_contract_holds g =
  let s = Dyn.create ~objective:Solver.Maximize g in
  let n = Digraph.n g and m = Digraph.m g in
  let rng = Rng.create 23 in
  let added = ref [] in
  let holds = ref true in
  for step = 1 to 24 do
    let a = Rng.int rng m in
    (match (step mod 6, !added) with
    | 0, _ ->
      let src = Rng.int rng n in
      added :=
        Dyn.add_arc s ~src ~dst:(Rng.int rng n)
          ~weight:(Rng.in_range rng 1 100) ~transit:1
        :: !added
    | 1, b :: rest ->
      Dyn.remove_arc s b;
      added := rest
    | (2 | 4), _ -> Dyn.set_transit s a (Rng.in_range rng 1 5)
    | _ -> Dyn.set_weight s a (Rng.in_range rng 1 100));
    if step mod 4 = 0 then ignore (Dyn.of_graph_arc s 0);
    holds :=
      !holds
      && Fingerprint.equal (Dyn.fingerprint s)
           (Fingerprint.of_graph (Dyn.graph s))
  done;
  !holds

let e20 _cfg =
  let dir = Filename.temp_file "ocr_e20_" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let slurp path = In_channel.with_open_bin path In_channel.input_all in
  let rows = ref [] in
  let row ~workload ~family g ~ms ~reference_ms ~identical =
    rows :=
      (workload, family, Digraph.n g, Digraph.m g, ms, reference_ms, identical)
      :: !rows
  in
  let measure (family, g) =
    let n = Digraph.n g in
    (* the two loaders: file bytes -> graph, reference on the same bytes *)
    List.iter
      (fun (workload, ext, render, reference) ->
        let path = Filename.concat dir (Printf.sprintf "%s_%d.%s" family n ext) in
        let text = render g in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        let loaded = Graph_io.load path in
        let identical =
          render loaded = text
          && Digraph.equal_structure loaded (reference (slurp path))
        in
        let ms = Timing.time_ms ~reps:5 (fun () -> ignore (Graph_io.load path)) in
        let reference_ms =
          Timing.time_ms ~reps:5 (fun () -> ignore (reference (slurp path)))
        in
        Sys.remove path;
        row ~workload ~family g ~ms ~reference_ms ~identical)
      [
        ("load_ocr", "ocr", Graph_io.to_string, fun s -> Reference.of_string s);
        ("load_gr", "gr", Graph_io.to_dimacs, fun s -> Reference.of_dimacs s);
      ];
    let scc = Scc.compute g in
    let count, component = Reference.scc_components g in
    row ~workload:"scc_compute" ~family g
      ~ms:(Timing.time_ms ~reps:5 (fun () -> ignore (Scc.compute g)))
      ~reference_ms:
        (Timing.time_ms ~reps:5 (fun () -> ignore (Reference.scc_components g)))
      ~identical:(scc.Scc.count = count && scc.Scc.component = component);
    (* the reference partition is the copying sweep, which the old code
       ran for a single component too *)
    let copy () =
      Digraph.partition g ~count:scc.Scc.count ~component:scc.Scc.component
        ~keep:(fun c -> not (Scc.is_trivial g scc c))
    in
    let subs = Scc.partition g scc in
    let identical =
      Array.length subs = Array.length (copy ())
      && Array.for_all
           (fun (sp : Scc.subproblem) ->
             let members = List.sort compare scc.Scc.members.(sp.Scc.comp) in
             let sub, node_of_sub, arc_of_sub = Digraph.induced g members in
             Digraph.equal_structure sp.Scc.sub sub
             && sp.Scc.node_of_sub = node_of_sub
             && sp.Scc.arc_of_sub = arc_of_sub)
           subs
    in
    row ~workload:"scc_partition" ~family g
      ~ms:(Timing.time_ms ~reps:5 (fun () -> ignore (Scc.partition g scc)))
      ~reference_ms:(Timing.time_ms ~reps:5 (fun () -> ignore (copy ())))
      ~identical;
    (* the per-arc sum against the chained hash it replaced *)
    let rebuilt = Graph_io.of_string (Graph_io.to_string g) in
    row ~workload:"fingerprint" ~family g
      ~ms:(Timing.time_ms ~reps:5 (fun () -> ignore (Fingerprint.of_graph g)))
      ~reference_ms:
        (Timing.time_ms ~reps:5 (fun () -> ignore (Reference.fingerprint g)))
      ~identical:
        (Fingerprint.equal (Fingerprint.of_graph g)
           (Fingerprint.of_graph rebuilt));
    (* a maximize session's label edit + fingerprint: the running sum
       against the old path, which negated the materialized (min-form)
       graph back to user weights and re-hashed every arc *)
    let m = Digraph.m g in
    let edit i = (i * 7919 mod m, 1 + (i mod 100)) in
    let s = Dyn.create ~objective:Solver.Maximize g in
    ignore (Dyn.of_graph_arc s 0);
    ignore (Dyn.fingerprint s);
    let mat = Digraph.negate_weights g in
    row ~workload:"dyn_fingerprint" ~family g
      ~ms:
        (time_batch_ms ~batch:64 (fun i ->
             let a, w = edit i in
             Dyn.set_weight s a w;
             ignore (Dyn.fingerprint s)))
      ~reference_ms:
        (time_batch_ms ~batch:4 (fun i ->
             let a, w = edit i in
             Digraph.Unsafe.set_weight mat a (-w);
             ignore (Reference.fingerprint (Digraph.negate_weights mat))))
      ~identical:(dyn_contract_holds g)
  in
  List.iter measure
    [
      ("sprand", Sprand.generate ~seed:1 ~n:4096 ~m:12288 ());
      ("sprand", Sprand.generate ~seed:1 ~n:32768 ~m:524288 ());
      ("many_scc", Families.many_scc ~components:64 ~size:96 ());
    ];
  (try Sys.rmdir dir with Sys_error _ -> ());
  let rows = List.rev !rows in
  Tables.print
    ~title:
      "E20: loader, SCC and fingerprint layers vs the implementations \
       they replaced (reference = line-splitting parsers, Vec-based \
       Tarjan, copying partition, chained hash; dyn_fingerprint = \
       set_weight + fingerprint on a maximize session)"
    ~header:
      [ "workload"; "family"; "n"; "m"; "ms"; "reference ms"; "speedup";
        "identical" ]
    (List.map
       (fun (workload, family, n, m, ms, reference_ms, identical) ->
         [
           workload; family; string_of_int n; string_of_int m;
           Tables.fmt_ms ms; Tables.fmt_ms reference_ms;
           Printf.sprintf "%.2fx" (reference_ms /. ms);
           (if identical then "yes" else "NO");
         ])
       rows);
  match !bench_json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let out fmt = Printf.fprintf oc fmt in
    let cores = host_cores () in
    out "{\n  \"experiment\": \"E20\",\n";
    out "  \"host_cores\": %d,\n" cores;
    out "  \"layers\": [\n";
    List.iteri
      (fun i (workload, family, n, m, ms, reference_ms, identical) ->
        out
          "    {\"workload\": %S, \"family\": %S, \"n\": %d, \"m\": %d, \
           \"host_cores\": %d, \"ms\": %.4f, \"reference_ms\": %.4f, \
           \"speedup\": %.2f, \"identical\": %b}%s\n"
          workload family n m cores ms reference_ms (reference_ms /. ms)
          identical
          (if i < List.length rows - 1 then "," else ""))
      rows;
    out "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" path

let all : (string * (config -> unit)) list =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16);
    ("E18", e18); ("E19", e19); ("E20", e20) ]
