(* --compare A.json ... -- B.json ...: two sets of --json results (A the
   parent, B the change), one verdict per (end-to-end metric, workload)
   under the bounds BENCHMARK.json fixes:

   - unresolved: a side's spread (quartile distance over median) is
     wider than the bound, and B does not read better (or worse by more
     than the bound) on every run;
   - worse: B's median is worse than A's by more than the bound;
   - better: B wins at least nine tenths of the run pairs and the
     medians differ by more than A's quartile distance;
   - same: otherwise.

   Exits 1 if any pair is worse. *)

let parse path =
  match Trace_read.read_file path with
  | Error e -> failwith e
  | Ok text -> (
    match Trace_read.parse_json text with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e))

let member k = function
  | Trace_read.Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Some (Trace_read.Str s) -> s | _ -> failwith "expected a string"
let num = function Some (Trace_read.Num x) -> x | _ -> failwith "expected a number"

(* (name, higher is better, bound) of every end-to-end metric *)
let bounds path =
  match member "end_to_end" (parse path) with
  | Some (Trace_read.Arr ms) ->
    List.map (fun m -> (str (member "name" m), str (member "better" m) = "higher", num (member "bound" m))) ms
  | _ -> failwith (path ^ ": no end_to_end list")

(* (workload, metric name -> value) of one --json result *)
let result path =
  let j = parse path in
  let metrics =
    match member "metrics" j with
    | Some (Trace_read.Obj ms) -> List.map (fun (k, v) -> (k, num (member "value" v))) ms
    | _ -> failwith (path ^ ": no metrics")
  in
  (str (member "workload" j), metrics)

let verdict ~higher ~bound a b =
  let qa1, ma, qa3 = Quant.quartiles a and qb1, mb, qb3 = Quant.quartiles b in
  let spread q1 m q3 = (q3 -. q1) /. Float.abs m in
  let better x y = if higher then x > y else x < y in
  let worse_by = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let all_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length b) a)
      (List.filteri (fun i _ -> i < List.length a) b) in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let v =
    if Float.max (spread qa1 ma qa3) (spread qb1 mb qb3) > bound then
      if all_better then "better"
      else if all_worse && worse_by > bound then "worse"
      else "unresolved"
    else if worse_by > bound then "worse"
    else if
      better mb ma
      && 10 * wins >= 9 * List.length pairs
      && Float.abs (mb -. ma) > qa3 -. qa1
    then "better"
    else "same"
  in
  (v, (qa1, ma, qa3), (qb1, mb, qb3))

let run args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> failwith "--compare: expected A files, then --, then B files"
  in
  let fa, fb = split [] args in
  if fa = [] || fb = [] then failwith "--compare: both sides need at least one file";
  let ra = List.map result fa and rb = List.map result fb in
  let workloads = List.sort_uniq compare (List.map fst (ra @ rb)) in
  let worse = ref false in
  Printf.printf "%-12s %-16s %30s %30s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun wl ->
      List.iter
        (fun (name, higher, bound) ->
          let values side =
            List.filter_map
              (fun (w, ms) -> if w = wl then List.assoc_opt name ms else None)
              side
          in
          match (values ra, values rb) with
          | [], _ | _, [] -> ()
          | a, b ->
            let v, (a1, am, a3), (b1, bm, b3) = verdict ~higher ~bound a b in
            if v = "worse" then worse := true;
            Printf.printf "%-12s %-16s %12.4f [%7.4g, %7.4g] %12.4f [%7.4g, %7.4g] %+7.1f%%  %s\n"
              wl name am a1 a3 bm b1 b3 (100.0 *. (bm -. am) /. Float.abs am) v)
        (bounds "BENCHMARK.json"))
    workloads;
  if !worse then 1 else 0
