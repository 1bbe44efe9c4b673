(* Benchmark harness entry point.

     dune exec bench/main.exe                 # quick suite, all experiments
     dune exec bench/main.exe -- --full       # paper-scale sizes
     dune exec bench/main.exe -- --only E5    # one experiment
     dune exec bench/main.exe -- --micro      # Bechamel microbenchmarks
     dune exec bench/main.exe -- --seeds 5    # more repetitions *)

let () =
  let full = ref false in
  let micro = ref false in
  let only : string list ref = ref [] in
  let seeds = ref 0 in
  let args =
    [
      ("--full", Arg.Set full, " paper-scale sizes (512..8192)");
      ("--micro", Arg.Set micro, " also run the Bechamel microbenchmarks");
      ( "--only",
        Arg.String (fun s -> only := String.uppercase_ascii s :: !only),
        "EK run only the given experiment (repeatable): E1..E23" );
      ("--seeds", Arg.Set_int seeds, "K number of random seeds per cell");
      ( "--csv",
        Arg.String (fun dir -> Tables.csv_dir := Some dir),
        "DIR also write every table as DIR/<id>.csv" );
      ( "--bench-json",
        Arg.String (fun f -> Experiments.bench_json_path := Some f),
        "FILE write E12..E23 numbers as machine-readable JSON" );
    ]
  in
  Arg.parse (Arg.align args)
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "ocr benchmark harness — regenerates the DAC'99 evaluation";
  let cfg =
    if !full then Experiments.full_config else Experiments.quick_config
  in
  let cfg =
    if !seeds > 0 then
      { cfg with Experiments.seeds = List.init !seeds (fun i -> i + 1) }
    else cfg
  in
  Printf.printf
    "ocr benchmark harness — %s mode; sizes %s; densities %s; %d seed(s)\n"
    (if !full then "full" else "quick")
    (String.concat "," (List.map string_of_int cfg.Experiments.sizes))
    (String.concat ","
       (List.map (Printf.sprintf "%.1f") cfg.Experiments.densities))
    (List.length cfg.Experiments.seeds);
  let selected =
    match !only with
    | [] -> Experiments.all
    | ids -> List.filter (fun (id, _) -> List.mem id ids) Experiments.all
  in
  if selected = [] then begin
    prerr_endline "no experiment matches --only (expected E1..E23)";
    exit 1
  end;
  List.iter
    (fun (id, f) ->
      Printf.printf "\n=== %s ===\n%!" id;
      let t0 = Unix.gettimeofday () in
      f cfg;
      Printf.printf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t0))
    selected;
  if !micro then Micro.run ()
