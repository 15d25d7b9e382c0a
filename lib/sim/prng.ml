(* The 64-bit state lives in 8 bytes rather than a [mutable int64]
   field, so advancing it stores an unboxed integer instead of
   allocating a boxed one, and a draw that ends in a float or an int
   allocates nothing. *)
type t = { state : Bytes.t }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalization mix from SplitMix64 (Steele, Lea & Flood 2014). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 z;
  { state }

let[@inline] get g = Bytes.get_int64_le g.state 0
let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next g =
  let z = Int64.add (get g) golden_gamma in
  Bytes.set_int64_le g.state 0 z;
  mix64 z

let int64 g = next g
let split g = of_state (next g)

(* Indexed stream derivation for logical processes: unlike [split],
   which advances the parent (so the k-th split depends on how many
   splits preceded it), [stream] is a pure function of the parent's
   current state and the index.  Partitioning a simulation into a
   different number of LPs therefore never perturbs the stream LP [i]
   draws from — the per-LP determinism contract of the parallel
   engine.  The index is spread by a second odd constant (the
   SplitMix64 gamma of the "alternative" stream family) so that
   neighbouring indices land in unrelated regions of the state space,
   and the result is finalized through [mix64] like every other
   output. *)
let stream_gamma = 0xD1B54A32D192ED03L

let stream g ~index =
  if index < 0 then invalid_arg "Prng.stream: negative index";
  of_state (mix64 (Int64.add (get g) (Int64.mul (Int64.of_int (index + 1)) stream_gamma)))

let[@inline] float g =
  (* 53 high bits as a mantissa in [0,1). *)
  let bits = Int64.shift_right_logical (next g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int g bound =
  assert (bound > 0);
  (* Rejection sampling on the low bits to avoid modulo bias. *)
  let rec loop () =
    let r = Int64.to_int (Int64.shift_right_logical (next g) 1) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then loop () else v
  in
  loop ()

let[@inline] bool g ~p = float g < p

let[@inline] exponential g ~mean =
  let u = float g in
  (* 1 - u is in (0,1], so log is finite. *)
  -.mean *. log (1.0 -. u)

let uniform g ~lo ~hi = lo +. ((hi -. lo) *. float g)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
