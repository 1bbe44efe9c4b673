type algorithm =
  | Burns
  | Ko
  | Yto
  | Howard
  | Ho
  | Karp
  | Dg
  | Lawler
  | Karp2
  | Oa1
  | Oa2

let all = [ Burns; Ko; Yto; Howard; Ho; Karp; Dg; Lawler; Karp2; Oa1; Oa2 ]

let name = function
  | Burns -> "burns"
  | Ko -> "ko"
  | Yto -> "yto"
  | Howard -> "howard"
  | Ho -> "ho"
  | Karp -> "karp"
  | Dg -> "dg"
  | Lawler -> "lawler"
  | Karp2 -> "karp2"
  | Oa1 -> "oa1"
  | Oa2 -> "oa2"

let display_name = function
  | Burns -> "Burns"
  | Ko -> "KO"
  | Yto -> "YTO"
  | Howard -> "Howard"
  | Ho -> "HO"
  | Karp -> "Karp"
  | Dg -> "DG"
  | Lawler -> "Lawler"
  | Karp2 -> "Karp2"
  | Oa1 -> "OA1"
  | Oa2 -> "OA2"

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun a -> name a = s) all

type exact_solver =
  ?stats:Stats.t -> ?budget:Budget.t -> ?pool:Executor.t ->
  Digraph.t -> Ratio.t * int list

let native_ratio = function
  | Burns | Howard | Lawler | Oa1 | Oa2 | Ko | Yto -> true
  | Ho | Karp | Dg | Karp2 -> false

(* [pool] parallelizes the intra-SCC improvement sweep; only Howard
   has a chunkable kernel, every other algorithm ignores it *)
let minimum_cycle_mean alg ?stats ?budget ?pool g =
  match alg with
  | Burns -> Burns.minimum_cycle_mean ?stats g
  | Ko -> Ko.minimum_cycle_mean ?stats g
  | Yto -> Yto.minimum_cycle_mean ?stats g
  | Howard -> Howard.minimum_cycle_mean ?stats ?budget ?pool g
  | Ho -> Ho.minimum_cycle_mean ?stats ?budget g
  | Karp -> Karp.minimum_cycle_mean ?stats g
  | Dg -> Dg.minimum_cycle_mean ?stats g
  | Lawler -> Lawler.minimum_cycle_mean ?stats g
  | Karp2 -> Karp2.minimum_cycle_mean ?stats ?budget g
  | Oa1 -> Oa.oa1_minimum_cycle_mean ?stats g
  | Oa2 -> Oa.oa2_minimum_cycle_mean ?stats g

let minimum_cycle_ratio alg ?stats ?budget ?pool g =
  match alg with
  | Burns -> Burns.minimum_cycle_ratio ?stats g
  | Howard -> Howard.minimum_cycle_ratio ?stats ?budget ?pool g
  | Lawler -> Lawler.minimum_cycle_ratio ?stats g
  | Oa1 -> Oa.oa1_minimum_cycle_ratio ?stats g
  | Oa2 -> Oa.oa2_minimum_cycle_ratio ?stats g
  | Ko -> Ko.minimum_cycle_ratio ?stats g
  | Yto -> Yto.minimum_cycle_ratio ?stats g
  | Ho | Karp | Dg | Karp2 ->
    (* Hartmann-Orlin reduction: expand transit times, solve the mean
       problem, and map the witness back *)
    let ex = Expand.transit_expand g in
    let lambda, cycle =
      minimum_cycle_mean alg ?stats ?budget ?pool ex.Expand.graph
    in
    (lambda, Expand.restrict_cycle ex cycle)
