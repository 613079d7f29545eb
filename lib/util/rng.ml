type t = { mutable state : int64 }

(* SplitMix64 constants (Steele, Lea & Flood, OOPSLA 2014). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }
let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = next_int64 t in
  (* Mix once more so the child stream starts far from the parent's. *)
  { state = mix64 s }

(* FNV-1a over the label bytes, folded into the seed.  Good enough to give
   independent SplitMix64 starting points; we only need collision
   resistance across the handful of labels a build uses. *)
let fnv1a64 init s =
  let h = ref init in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
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

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 1 lsl 29 then invalid_arg "Rng.int: bound too large";
  (* Rejection sampling for exact uniformity. *)
  let mask = (1 lsl 30) - 1 in
  let limit = mask / bound * bound in
  let rec loop () =
    let r = bits t in
    if r < limit then r mod bound else loop ()
  in
  loop ()

let float t bound =
  (* 53 random bits scaled into [0,1), then into [0,bound). *)
  let r53 = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r53 /. 9007199254740992.0 *. bound

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

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
