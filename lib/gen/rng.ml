type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL }

(* SplitMix64 (Steele, Lea & Flood): state += golden; mix. *)
let next64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let r = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  r mod bound

let in_range t lo hi =
  if hi < lo then invalid_arg "Rng.in_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  let r = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
