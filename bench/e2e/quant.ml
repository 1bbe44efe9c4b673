(* Sample statistics shared by the runner and --compare. *)

(* A growable float sample, so timed loops append without consing. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let get s i = s.data.(i)

let prefix s n =
  let n = min n s.len in
  { data = Array.sub s.data 0 n; len = n }

let to_list s = Array.to_list (Array.sub s.data 0 s.len)
let sum s = List.fold_left ( +. ) 0.0 (to_list s)

(* Nearest-rank percentile (p in [0, 1]); 0 on an empty sample, which
   is how a layer the workload never enters reads. *)
let percentile s p = Trace_read.percentile (to_list s) p

let median_list xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The three quartiles exactly as Python's
   statistics.quantiles(values, n=4) computes them (the default
   "exclusive" method), so spreads read the same here as in any script
   that checks the runs. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quant.quartiles: empty sample"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
