(* The one component fan-out every front-end shares: results in item
   order whatever the pool shape, every item attempted under budget
   failures with the dominant cause reported, and the inner-pool
   placement rule. *)

let with_pool jobs f =
  let pool = Executor.create ~jobs in
  Fun.protect ~finally:(fun () -> Executor.shutdown pool) (fun () -> f pool)

(* [f] under each pool shape the combinator distinguishes: no pool and
   a single-worker pool (both inline) and a real 8-way fan-out *)
let each_shape f =
  [
    ("no pool", f None);
    ("jobs=1", with_pool 1 (fun p -> f (Some p)));
    ("jobs=8", with_pool 8 (fun p -> f (Some p)));
  ]

let arcs (sp : Scc.subproblem) = Digraph.m sp.Scc.sub

let test_item_order () =
  let g = Families.many_scc ~seed:5 ~weights:(-9, 9) ~components:12 ~size:6 () in
  let subs = Scc.partition g (Scc.compute g) in
  let solve ?pool (sp : Scc.subproblem) =
    Registry.minimum_cycle_mean Registry.Howard ?pool sp.Scc.sub
  in
  let expect = Array.map (fun sp -> Some (solve sp)) subs in
  List.iter
    (fun (shape, (results, cause)) ->
      Alcotest.(check bool) (shape ^ ": no budget cause") true (cause = None);
      Alcotest.(check bool) (shape ^ ": item order") true (results = expect))
    (each_shape (fun pool -> Fanout.run ?pool ~arcs solve subs))

let test_budget_causes () =
  let failing =
    [ (3, Budget.Iterations); (6, Budget.Deadline); (8, Budget.Iterations) ]
  in
  let run ?pool failing =
    let attempted = Atomic.make 0 in
    let solve ?pool:_ i =
      Atomic.incr attempted;
      match List.assoc_opt i failing with
      | Some c -> raise (Budget.Exceeded c)
      | None -> i * i
    in
    let results, cause =
      Fanout.run ?pool ~arcs:(fun _ -> 1) solve (Array.init 10 Fun.id)
    in
    (results, cause, Atomic.get attempted)
  in
  List.iter
    (fun (shape, (results, cause, attempted)) ->
      Alcotest.(check int) (shape ^ ": every item attempted") 10 attempted;
      Alcotest.(check bool) (shape ^ ": deadline dominates") true
        (cause = Some Budget.Deadline);
      Array.iteri
        (fun i r ->
          let want =
            if List.mem_assoc i failing then None else Some (i * i)
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%s: item %d" shape i)
            want r)
        results)
    (each_shape (fun pool -> run ?pool failing));
  List.iter
    (fun (shape, (_, cause, _)) ->
      Alcotest.(check bool) (shape ^ ": iterations alone") true
        (cause = Some Budget.Iterations))
    (each_shape (fun pool -> run ?pool [ (2, Budget.Iterations) ]))

let test_placement_table () =
  List.iter
    (fun (what, jobs, arcs, want) ->
      Alcotest.(check (array bool)) what want (Fanout.placement ~jobs arcs))
    [
      ("single item", 8, [| 500 |], [| true |]);
      ("single item, one worker", 1, [| 500 |], [| true |]);
      ("unsaturated fan-out", 8, [| 40; 2; 2 |], [| true; true; true |]);
      ( "balanced saturated fan-out", 4,
        [| 10; 10; 10; 10; 10; 10 |],
        [| false; false; false; false; false; false |] );
      ( "one giant among small", 4,
        [| 3; 100; 3; 3; 3; 3 |],
        [| false; true; false; false; false; false |] );
      ("exactly half the arcs", 2, [| 25; 50; 25 |], [| false; true; false |]);
    ];
  (* run follows the table on a pooled fan-out, and an inline run hands
     the caller's pool to every item *)
  let granted ?pool arcs =
    fst
      (Fanout.run ?pool ~arcs:Fun.id (fun ?pool _ -> pool <> None) arcs)
    |> Array.map Option.get
  in
  let giant = [| 3; 100; 3; 3; 3; 3 |] in
  with_pool 4 (fun p ->
      Alcotest.(check (array bool)) "pooled run = placement"
        (Fanout.placement ~jobs:4 giant) (granted ~pool:p giant));
  with_pool 1 (fun p ->
      Alcotest.(check (array bool)) "jobs=1 passes the pool down"
        (Array.map (fun _ -> true) giant) (granted ~pool:p giant));
  Alcotest.(check (array bool)) "no pool, none handed down"
    (Array.map (fun _ -> false) giant) (granted giant);
  with_pool 8 (fun p ->
      Alcotest.(check bool) "one item stays inline" true
        (Fanout.serial ~pool:p 1);
      Alcotest.(check bool) "several items fan out" false
        (Fanout.serial ~pool:p 3))

let test_best () =
  let r = Ratio.make in
  Alcotest.(check (option string)) "least key, earlier item on a tie"
    (Some "b")
    (Option.map snd
       (Fanout.best ~key:fst
          [| None; Some (r 3 1, "a"); Some (r 1 1, "b"); Some (r 1 1, "c");
             None |]));
  Alcotest.(check (option string)) "nothing completed" None
    (Option.map snd (Fanout.best ~key:fst [| None; None |]))

let suite =
  [
    Alcotest.test_case "results in item order for every pool shape" `Quick
      test_item_order;
    Alcotest.test_case "budget causes: deadline dominates, all attempted"
      `Quick test_budget_causes;
    Alcotest.test_case "inner-pool placement table" `Quick
      test_placement_table;
    Alcotest.test_case "best: component order, first on ties" `Quick
      test_best;
  ]
