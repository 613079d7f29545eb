
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
        Alcotest.test_case "choose" `Quick test_choose;
        Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
      ] );
  ]
