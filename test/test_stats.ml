
let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.mean []))

let test_geomean () =
  Alcotest.check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check feq "singleton" 5.0 (Stats.geomean [ 5.0 ]);
  Alcotest.check_raises "non-positive raises"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_median () =
  Alcotest.check feq "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "median" `Quick test_median;
      ] );
  ]
