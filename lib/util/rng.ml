(* The SplitMix64 state, kept in 8 bytes rather than a mutable [int64]
   field: a store into the field boxes every new state, while
   [Bytes.set_int64_le] writes it unboxed, so a draw allocates
   nothing. *)
type t = Bytes.t

let[@inline] state t = Bytes.get_int64_le t 0
let[@inline] set_state t s = Bytes.set_int64_le t 0 s

let create seed =
  let t = Bytes.create 8 in
  set_state t seed;
  t

(* SplitMix64 constants (Steele, Lea & Flood, OOPSLA 2014). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let copy = Bytes.copy

let[@inline] next_int64 t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix64 s

let split t =
  let s = next_int64 t in
  (* Mix once more so the child stream starts far from the parent's. *)
  create (mix64 s)

(* FNV-1a over the label bytes, folded into the seed.  Good enough to give
   independent SplitMix64 starting points; we only need collision
   resistance across the handful of labels a build uses. *)
let fnv1a64 init s =
  let h = ref init in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h 0x100000001B3L
  done;
  !h

let of_labels seed labels =
  let h =
    List.fold_left
      (fun acc label ->
        (* Separate labels with an out-of-band byte so ["ab";"c"] and
           ["a";"bc"] hash differently. *)
        fnv1a64 (Int64.add acc 0xFFL) label)
      (mix64 seed) labels
  in
  create (mix64 h)

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 1 lsl 29 then invalid_arg "Rng.int: bound too large";
  (* Rejection sampling for exact uniformity. *)
  let mask = (1 lsl 30) - 1 in
  let limit = mask / bound * bound in
  let r = ref (bits t) in
  while !r >= limit do
    r := bits t
  done;
  !r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0,1), then into [0,bound). *)
  let r53 = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r53 /. 9007199254740992.0 *. bound

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

(* [float t 1.0 < p] is [r53 /. 2^53 < p] for the draw's top 53 bits
   [r53]; both sides scale by 2^53 exactly, and an integer is below a
   real [x] exactly when it is below [ceil x].  The sentinels stand for
   the two cases [bernoulli] decides without a draw. *)
let two53 = 9007199254740992.0
let never = -1
let always = max_int

let threshold p =
  if p <= 0.0 then never
  else if p >= 1.0 then always
  else if Float.is_nan p then 0
  else int_of_float (Float.ceil (p *. two53))

let draw_below t thr =
  if thr = never then false
  else if thr = always then true
  else Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) < thr

(* [draw_below] in a loop, with the state in a local: one call and one
   state store per success, not per trial. *)
let first_success t thr n =
  if thr = never || n <= 0 then max n 0
  else if thr = always then 0
  else begin
    let s = ref (state t) and k = ref 0 and found = ref false in
    while (not !found) && !k < n do
      s := Int64.add !s golden_gamma;
      if Int64.to_int (Int64.shift_right_logical (mix64 !s) 11) < thr then
        found := true
      else incr k
    done;
    set_state t !s;
    !k
  end

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
