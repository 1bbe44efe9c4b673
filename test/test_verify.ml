let g () = Families.two_cycles ~len1:2 ~w1:6 ~len2:3 ~w2:3

let good_cycle g =
  (Solver.minimum_cycle_mean g |> Option.get).Solver.cycle

let test_accepts_correct_result () =
  let g = g () in
  let r = Solver.minimum_cycle_mean g |> Option.get in
  Alcotest.(check bool) "Ok" true (Verify.certify_report g r = Ok ())

let expect_error got =
  match got with
  | Ok () -> Alcotest.fail "expected the certificate to fail"
  | Error _ -> ()

let test_rejects_wrong_lambda () =
  let g = g () in
  expect_error (Verify.certify g (Helpers.r 2 1) (good_cycle g));
  expect_error (Verify.certify g (Helpers.r 6 1) (good_cycle g))

let test_rejects_bad_witness () =
  let g = g () in
  expect_error (Verify.certify g (Helpers.r 3 1) []);
  expect_error (Verify.certify g (Helpers.r 3 1) [ 0 ])

let test_rejects_suboptimal_cycle () =
  let g = g () in
  (* the weight-6 cycle: a genuine cycle with the WRONG (non-optimal) mean *)
  let heavy =
    List.filter (fun a -> Digraph.weight g a = 6) (List.init (Digraph.m g) Fun.id)
  in
  (* claiming its own mean (6) must fail the optimality step *)
  expect_error (Verify.certify g (Helpers.r 6 1) heavy)

let test_maximize_certification () =
  let g = g () in
  let r = Solver.maximum_cycle_mean g |> Option.get in
  Alcotest.(check bool) "max certificate" true
    (Verify.certify_report ~objective:Solver.Maximize g r = Ok ());
  (* the same report fails under the wrong objective *)
  expect_error (Verify.certify_report ~objective:Solver.Minimize g r)

let test_ratio_certification () =
  let g = Digraph.of_arcs 2 [ (0, 1, 6, 2); (1, 0, 2, 2); (0, 0, 30, 3) ] in
  let r = Solver.minimum_cycle_ratio g |> Option.get in
  Alcotest.(check bool) "ratio certificate" true
    (Verify.certify_report ~problem:Solver.Cycle_ratio g r = Ok ())

let qcheck_all_reports_certify =
  QCheck.Test.make ~name:"verify: every solver report certifies" ~count:150
    (Helpers.arb_any_graph ~max_n:8 ~max_m:18 ())
    (fun g ->
      match Solver.minimum_cycle_mean g with
      | None -> true
      | Some r -> Verify.certify_report g r = Ok ())

let qcheck_shifted_lambda_rejected =
  QCheck.Test.make ~name:"verify: perturbed lambda is rejected" ~count:150
    (Helpers.arb_strongly_connected ~max_n:7 ~max_extra:10 ())
    (fun g ->
      match Solver.minimum_cycle_mean g with
      | None -> true
      | Some r ->
        let shifted = Ratio.add r.Solver.lambda Ratio.one in
        Verify.certify g shifted r.Solver.cycle <> Ok ())

(* ------------------------------------------------------------------ *)
(* stored potentials                                                    *)
(* ------------------------------------------------------------------ *)

(* A served instance: a small SPRAND, circuit or many-SCC graph built
   from a seed (so a second seed gives a foreign graph of the same
   size), an objective and a problem. *)
let gen_instance =
  let open QCheck.Gen in
  let* pick = int_range 0 2 in
  let* seed = int_range 0 1_000_000 in
  let* maximize = bool in
  let* ratio = bool in
  let+ build =
    match pick with
    | 0 ->
      let* n = int_range 2 30 in
      let+ extra = int_range 0 40 in
      fun seed ->
        Sprand.generate ~seed ~weights:(-50, 50) ~transits:(1, 5) ~n
          ~m:(n + extra) ()
    | 1 ->
      let+ registers = int_range 2 40 in
      fun seed -> Circuit.generate ~seed ~registers ()
    | _ ->
      let* components = int_range 1 4 in
      let+ size = int_range 2 8 in
      fun seed -> Families.many_scc ~seed ~weights:(-20, 20) ~components ~size ()
  in
  ( build seed,
    build (seed + 1),
    (if maximize then Solver.Maximize else Solver.Minimize),
    if ratio then Solver.Cycle_ratio else Solver.Cycle_mean )

let arb_instance =
  QCheck.make
    ~print:(fun (g, _, objective, problem) ->
      Printf.sprintf "%s %s\n%s"
        (if objective = Solver.Maximize then "max" else "min")
        (if problem = Solver.Cycle_ratio then "ratio" else "mean")
        (Graph_io.to_string g))
    gen_instance

let other = function
  | Solver.Minimize -> Solver.Maximize
  | Solver.Maximize -> Solver.Minimize

(* the optimum, or None on an acyclic graph or one the preflight
   rejects (a zero-transit cycle under the ratio problem) *)
let optimum ~objective ~problem g =
  match Solver.solve ~objective ~problem ~algorithm:Registry.Howard g with
  | r -> r
  | exception Invalid_argument _ -> None

(* the potentials a full certificate of the optimum computes *)
let potentials_of ~objective ~problem g (r : Solver.report) =
  match Verify.certify_with ~objective ~problem g r.Solver.lambda r.Solver.cycle with
  | Ok (Verify.Probed stored) -> stored
  | Ok Verify.Stored | Error _ -> None

(* a genuine cycle of the graph that is not optimal, and its ratio:
   the other objective's optimum, when the two differ *)
let suboptimal ~objective ~problem g (r : Solver.report) =
  match optimum ~objective:(other objective) ~problem g with
  | Some r' when not (Ratio.equal r'.Solver.lambda r.Solver.lambda) ->
    Some (r'.Solver.lambda, r'.Solver.cycle)
  | _ -> None

let qcheck_stored_agrees =
  QCheck.Test.make ~count:200
    ~name:"verify: stored potentials agree with the from-zero certificate"
    arb_instance
    (fun (g, _, objective, problem) ->
      match optimum ~objective ~problem g with
      | None -> true
      | Some r ->
        let lambda = r.Solver.lambda and cycle = r.Solver.cycle in
        let stored = Option.get (potentials_of ~objective ~problem g r) in
        let check = Verify.certify_with ~objective ~problem ~stored g in
        check lambda cycle = Ok Verify.Stored
        && Verify.certify ~objective ~problem g lambda cycle = Ok ()
        && (match suboptimal ~objective ~problem g r with
          | None -> true
          | Some (l, c) -> (
            match (check l c, Verify.certify ~objective ~problem g l c) with
            | Error e, Error e' ->
              e = e' && String.starts_with ~prefix:"found a better cycle" e
            | _ -> false)))

(* Potentials from another graph of the same size, from the other
   objective, tampered with, or of the wrong length: the true optimum
   still certifies (the check falls back to the full probe where they
   fail), and a wrong λ never does. *)
let qcheck_foreign_potentials =
  QCheck.Test.make ~count:200
    ~name:"verify: foreign or tampered potentials never certify a wrong lambda"
    arb_instance
    (fun (g, g2, objective, problem) ->
      match optimum ~objective ~problem g with
      | None -> true
      | Some r ->
        let lambda = r.Solver.lambda and cycle = r.Solver.cycle in
        let n = Digraph.n g in
        let own = Option.get (potentials_of ~objective ~problem g r) in
        let tampered =
          let d = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
          Bigarray.Array1.blit own d;
          (* raise the head of a witness arc far above its tail *)
          let v = Digraph.dst g (List.hd cycle) in
          d.{v} <- Int32.add d.{v} (Int32.shift_left 1l 30);
          d
        in
        let wrong_length =
          let d = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (n + 1) in
          Bigarray.Array1.fill d 0l;
          d
        in
        let foreign =
          List.filter_map Fun.id
            [
              Option.bind (optimum ~objective ~problem g2)
                (potentials_of ~objective ~problem g2);
              Option.bind
                (optimum ~objective:(other objective) ~problem g)
                (potentials_of ~objective:(other objective) ~problem g);
            ]
        in
        let wrong_claims =
          (Ratio.add lambda Ratio.one, cycle)
          :: Option.to_list (suboptimal ~objective ~problem g r)
        in
        let sound stored =
          let check = Verify.certify_with ~objective ~problem ~stored g in
          Result.is_ok (check lambda cycle)
          && List.for_all (fun (l, c) -> Result.is_error (check l c)) wrong_claims
        in
        let falls_back stored =
          match Verify.certify_with ~objective ~problem ~stored g lambda cycle with
          | Ok (Verify.Probed _) -> true
          | Ok Verify.Stored | Error _ -> false
        in
        List.for_all sound (tampered :: wrong_length :: foreign)
        && falls_back tampered && falls_back wrong_length)

(* Potentials are stored as int32: a probe whose potentials leave its
   range returns none to store.  On the two-arc cycle of weights ∓w the
   probe from zero ends at d = [0; −w], so w = 2^31 is the widest that
   fits; weights of 2^32 are still far inside the preflight bound. *)
let test_pack_int32 () =
  let probe w =
    let g = Digraph.of_arcs 2 [ (0, 1, -w, 1); (1, 0, w, 1) ] in
    Solver.preflight ~problem:Solver.Cycle_mean g;
    match Verify.certify_with g Ratio.zero [ 0; 1 ] with
    | Ok (Verify.Probed stored) -> stored
    | _ -> Alcotest.fail "expected the full probe to certify"
  in
  (match probe (1 lsl 31) with
  | Some d -> Alcotest.(check int32) "potential of node 1" Int32.min_int d.{1}
  | None -> Alcotest.fail "int32 potentials not stored");
  Alcotest.(check bool) "one below int32" true (probe ((1 lsl 31) + 1) = None);
  Alcotest.(check bool) "2^32" true (probe (1 lsl 32) = None)

(* A weight near min_int makes [d(src) + cost] wrap around to a large
   positive sum, which would pass an arc whose inequality is false.
   Such a graph never passes the solver's preflight, but a hit checks
   the graph it loaded: the check must refuse the label and leave the
   verdict to the full probe, which finds the better cycle. *)
let test_wrapping_label_falls_back () =
  let g =
    Digraph.of_arcs 2 [ (0, 0, 0, 1); (0, 1, min_int + 1, 1); (1, 0, 0, 1) ]
  in
  let stored = Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout [| -5l; 0l |] in
  match Verify.certify_with ~stored g Ratio.zero [ 0 ] with
  | Error e ->
    Alcotest.(check bool) e true
      (String.starts_with ~prefix:"found a better cycle" e)
  | Ok _ -> Alcotest.fail "a wrapped sum certified a wrong lambda"

let suite =
  [
    Alcotest.test_case "accepts correct result" `Quick test_accepts_correct_result;
    Alcotest.test_case "rejects wrong lambda" `Quick test_rejects_wrong_lambda;
    Alcotest.test_case "rejects bad witness" `Quick test_rejects_bad_witness;
    Alcotest.test_case "rejects suboptimal cycle" `Quick
      test_rejects_suboptimal_cycle;
    Alcotest.test_case "maximize certification" `Quick test_maximize_certification;
    Alcotest.test_case "ratio certification" `Quick test_ratio_certification;
  ]
  @ Helpers.qtests [ qcheck_all_reports_certify; qcheck_shifted_lambda_rejected ]
  @ [
      Alcotest.test_case "potentials past int32 are not stored" `Quick
        test_pack_int32;
      Alcotest.test_case "potentials: a wrapping label falls back" `Quick
        test_wrapping_label_falls_back;
    ]
  @ Helpers.qtests [ qcheck_stored_agrees; qcheck_foreign_potentials ]
