let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
            acc +. log x)
          0.0 xs
      in
      exp (log_sum /. float_of_int (List.length xs))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
