type t = { lo : int64; hi : int64 }

(* SplitMix64 finalizer (Steele, Lea & Flood) — same mixer as Rng.
   Inlined so every caller's loop keeps its int64s unboxed. *)
let[@inline] mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

(* Odd multipliers.  [k_src] keeps (src, dst) injective for every pair
   below 2²⁰: no |Δsrc| < 2²⁰ brings [Δsrc·k_src] within 2²⁰ of 0 mod
   2⁶⁴.  [k_w·k_t ≡ 3 (mod 4)], so no nonzero (Δweight, Δtransit) of
   OCaml ints cancels in both lanes at once (that would need
   [Δweight·(k_w·k_t − 1) ≡ 0], i.e. 2⁶³ | Δweight). *)
let k_src = 0xC2B2AE3D27D4EB4FL
let k_w = 0x165667B19E3779F9L
let k_t = 0xD6E8FEB86659FD93L
let hi_salt = 0x6A09E667F3BCC909L

(* One term per arc: a finalizer over (id, src, dst), then one per lane
   over that state and the two labels, combined differently. *)
let[@inline] arc_state a s d =
  mix
    (Int64.add
       (Int64.add (Int64.mul (Int64.of_int a) golden)
          (Int64.mul (Int64.of_int s) k_src))
       (Int64.of_int d))

let[@inline] lo_term x w tt =
  mix (Int64.add (Int64.add x (Int64.mul (Int64.of_int w) k_w)) (Int64.of_int tt))

let[@inline] hi_term x w tt =
  mix
    (Int64.add
       (Int64.add (Int64.logxor x hi_salt) (Int64.mul (Int64.of_int tt) k_t))
       (Int64.of_int w))

let[@inline] finish_lo n m =
  Int64.add (mix (Int64.add (Int64.of_int n) golden)) (Int64.of_int m)
  |> mix

let[@inline] finish_hi n m =
  Int64.add (mix (Int64.add (Int64.of_int m) hi_salt)) (Int64.of_int n)
  |> mix

(* The running lane sums live unboxed in 16 bytes, so [add]/[sub]
   allocate nothing. *)
type sum = Bytes.t

let zero () = Bytes.make 16 '\000'

let[@inline] bump sum lo hi =
  Bytes.set_int64_ne sum 0 (Int64.add (Bytes.get_int64_ne sum 0) lo);
  Bytes.set_int64_ne sum 8 (Int64.add (Bytes.get_int64_ne sum 8) hi)

let add sum ~arc ~src ~dst ~weight ~transit =
  let x = arc_state arc src dst in
  bump sum (lo_term x weight transit) (hi_term x weight transit)

let sub sum ~arc ~src ~dst ~weight ~transit =
  let x = arc_state arc src dst in
  bump sum
    (Int64.neg (lo_term x weight transit))
    (Int64.neg (hi_term x weight transit))

let finish sum ~n ~m =
  {
    lo = Int64.add (finish_lo n m) (Bytes.get_int64_ne sum 0);
    hi = Int64.add (finish_hi n m) (Bytes.get_int64_ne sum 8);
  }

(* The label arrays are read directly: under dune's dev profile
   (-opaque) every Digraph accessor would be a real call. *)
let of_graph g =
  let n = Digraph.n g and m = Digraph.m g in
  let srcs = Digraph.Unsafe.srcs g and dsts = Digraph.Unsafe.dsts g in
  let ws = Digraph.Unsafe.weights g and ts = Digraph.Unsafe.transits g in
  let lo = ref (finish_lo n m) and hi = ref (finish_hi n m) in
  for a = 0 to m - 1 do
    let x =
      arc_state a (Bigarray.Array1.unsafe_get srcs a)
        (Bigarray.Array1.unsafe_get dsts a)
    in
    let w = Bigarray.Array1.unsafe_get ws a
    and tt = Bigarray.Array1.unsafe_get ts a in
    lo := Int64.add !lo (lo_term x w tt);
    hi := Int64.add !hi (hi_term x w tt)
  done;
  { lo = !lo; hi = !hi }

let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi

let hash t = Int64.to_int t.lo land max_int

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo
