
let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let eq = ref 0 in
  for _ = 1 to 100 do
    if Rng.next_int64 a = Rng.next_int64 b then incr eq
  done;
  Alcotest.(check bool) "streams differ" true (!eq < 5)

let test_copy_independent () =
  let a = Rng.create 7L in
  let _ = Rng.next_int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues stream" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let eq = ref 0 in
  for _ = 1 to 100 do
    if Rng.next_int64 a = Rng.next_int64 b then incr eq
  done;
  Alcotest.(check bool) "split stream differs" true (!eq < 5)

let test_of_labels_stable () =
  let a = Rng.of_labels 1L [ "bench"; "cfg"; "3" ] in
  let b = Rng.of_labels 1L [ "bench"; "cfg"; "3" ] in
  Alcotest.(check int64) "stable derivation" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_of_labels_separator () =
  let a = Rng.of_labels 1L [ "ab"; "c" ] in
  let b = Rng.of_labels 1L [ "a"; "bc" ] in
  Alcotest.(check bool) "label boundary matters" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_int_bounds () =
  let r = Rng.create 99L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_uniform () =
  (* Chi-squared-ish sanity: each of 8 buckets gets its fair share. *)
  let r = Rng.create 123L in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        "bucket within 5% of expectation" true
        (abs (c - (n / 8)) < n / 8 / 20))
    counts

let test_float_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.0 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.0)
  done

let test_bernoulli_extremes () =
  let r = Rng.create 5L in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0);
  Alcotest.(check bool) "p<0 clamps" false (Rng.bernoulli r (-1.0));
  Alcotest.(check bool) "p>1 clamps" true (Rng.bernoulli r 2.0)

let test_bernoulli_rate () =
  let r = Rng.create 11L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

(* [draw_below] at [threshold p] against [bernoulli] at [p], on copies of
   one stream: the same decision, and the same draws taken, so the next
   outputs of the two streams agree. *)
let same_as_bernoulli r p =
  let a = Rng.copy r and b = Rng.copy r in
  let expected = Rng.bernoulli a p in
  let got = Rng.draw_below b (Rng.threshold p) in
  expected = got && Rng.next_int64 a = Rng.next_int64 b

let test_threshold_edges () =
  (* The first draw's top 53 bits, as a probability: p * 2^53 is that
     integer, so [bernoulli] is false at p and true just above it.  The
     stream is one whose first draw is below 1/4, so the next float up
     is less than 2^-53 away: p * 2^53 is not an integer there. *)
  let at_draw r =
    Int64.to_float (Int64.shift_right_logical (Rng.next_int64 (Rng.copy r)) 11)
    /. 9007199254740992.0
  in
  let rec stream seed =
    let r = Rng.create seed in
    if at_draw r < 0.25 then r else stream (Int64.succ seed)
  in
  let r = stream 23L in
  let at_draw = at_draw r in
  List.iter
    (fun (what, p) ->
      Alcotest.(check bool) what true (same_as_bernoulli r p))
    [
      ("0", 0.0);
      ("1", 1.0);
      ("negative", -0.25);
      ("above 1", 1.5);
      ("nan", Float.nan);
      ("smallest subnormal", Float.succ 0.0);
      ("1 - ulp", Float.pred 1.0);
      ("p * 2^53 integral", 0.375);
      ("just below it", Float.pred 0.375);
      ("just above it", Float.succ 0.375);
      ("the draw itself", at_draw);
      ("just below the draw", Float.pred at_draw);
      ("just above the draw", Float.succ at_draw);
    ];
  Alcotest.(check bool) "false at the draw" false
    (Rng.draw_below (Rng.copy r) (Rng.threshold at_draw));
  Alcotest.(check bool) "true just above it" true
    (Rng.draw_below (Rng.copy r) (Rng.threshold (Float.succ at_draw)))

let prop_threshold =
  QCheck.Test.make ~name:"threshold draw decides as bernoulli" ~count:2000
    QCheck.(pair int64 (float_range 0.0 1.0))
    (fun (seed, p) -> same_as_bernoulli (Rng.create seed) p)

(* [first_success] against the [draw_below] loop it stands for. *)
let prop_first_success =
  QCheck.Test.make ~name:"first_success is the draw_below loop" ~count:1000
    QCheck.(triple int64 (float_range (-0.1) 1.1) (int_bound 40))
    (fun (seed, p, n) ->
      let thr = Rng.threshold p in
      let a = Rng.create seed and b = Rng.create seed in
      let rec loop k = if k < n && not (Rng.draw_below a thr) then loop (k + 1) else k in
      let expected = loop 0 in
      Rng.first_success b thr n = expected && Rng.next_int64 a = Rng.next_int64 b)

let test_choose () =
  let r = Rng.create 3L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose r arr) arr)
  done;
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r [||]))

let test_shuffle_permutation () =
  let r = Rng.create 17L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* The stream itself, pinned: every diversified image is a function of
   these draws, so a change to the state's representation must leave
   the first outputs of each draw kind exactly as they were. *)
let test_stream_pinned () =
  let seed = 20130223L in
  let r = Rng.create seed in
  Alcotest.(check (list int64))
    "next_int64"
    [ -2165485758430612680L; -8310503195033984255L; 887280780828464812L ]
    (List.init 3 (fun _ -> Rng.next_int64 r));
  let r = Rng.create seed in
  Alcotest.(check (list int))
    "int 1000" [ 963; 872; 538; 77; 172; 366 ]
    (List.init 6 (fun _ -> Rng.int r 1000));
  let r = Rng.create seed in
  Alcotest.(check (list bool))
    "bernoulli 0.3"
    [ false; false; true; false; false; false; false; true; false; false; false; false ]
    (List.init 12 (fun _ -> Rng.bernoulli r 0.3));
  let r = Rng.create seed in
  let s = Rng.split r in
  Alcotest.(check int64) "split" (-7095048550235471518L) (Rng.next_int64 s);
  Alcotest.(check (float 0.)) "float after split" 0x1.195652c006804p-1 (Rng.float r 1.0)

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "stream pinned" `Quick test_stream_pinned;
        Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
        Alcotest.test_case "copy" `Quick test_copy_independent;
        Alcotest.test_case "split" `Quick test_split_independent;
        Alcotest.test_case "of_labels stable" `Quick test_of_labels_stable;
        Alcotest.test_case "of_labels separator" `Quick
          test_of_labels_separator;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int uniform" `Quick test_int_uniform;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        Alcotest.test_case "threshold edges" `Quick test_threshold_edges;
        QCheck_alcotest.to_alcotest prop_threshold;
        QCheck_alcotest.to_alcotest prop_first_success;
        Alcotest.test_case "choose" `Quick test_choose;
        Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
      ] );
  ]
