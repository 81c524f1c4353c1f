(* Splitmix-style generator on OCaml's native 63-bit int.

   The original implementation ran splitmix64 on [int64], but every [Int64]
   intermediate is a boxed custom block without flambda — ~10 allocations
   per draw on what is (after the event heap) the hottest path in the
   workload generator. Native [int] arithmetic wraps modulo 2^63 on 64-bit
   platforms, so the same xor-shift/multiply mixing runs allocation-free;
   the constants are the splitmix64 ones truncated to fit 62 bits (kept
   odd). Streams differ from the int64 version but remain deterministic
   per seed, which is all the repository relies on. *)

type t = { mutable state : int }

(* golden gamma truncated below 2^62, odd *)
let golden_gamma = 0x1E3779B97F4A7C15

let create seed = { state = (seed + 1) * 0x2545F4914F6CDD1D }

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* Next raw value: 63 bits, may be negative (top bit set). *)
let next t =
  t.state <- t.state + golden_gamma;
  mix t.state

let next_int64 t = Int64.of_int (next t)
let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Logical shift clears the sign bit: 62 uniform non-negative bits. *)
  (next t lsr 1) mod bound

(* 53 random bits mapped to [0, 1). *)
let float t =
  let bits = float_of_int (next t lsr 10) in
  bits *. (1.0 /. 9007199254740992.0)

let float_range t lo hi = lo +. (float t *. (hi -. lo))
let bool t p = float t < p

let exponential t mean =
  let u = float t in
  -. mean *. log (1.0 -. u)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
