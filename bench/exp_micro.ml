(* Bechamel microbenchmarks: the kernel underneath each regenerated table
   or figure, measured in isolation.  One Test.make per experiment. *)

open Bechamel
open Toolkit

let prepare_once () =
  let w = Workloads.find "429.mcf" in
  Suite.prepared w

let tests () =
  let p = prepare_once () in
  let w = p.Suite.workload in
  let original = p.Suite.baseline.Link.text in
  let config = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  let diversified =
    let img, _ =
      Driver.diversify_linked p.Suite.compiled ~config ~profile:p.Suite.profile
        ~version:0
    in
    img.Link.text
  in
  let population = Suite.texts_of_population p config 5 in
  [
    (* Figure 3 pipeline: full compilation of one benchmark. *)
    Test.make ~name:"figure3.compile-O2"
      (Staged.stage (fun () ->
           ignore (Driver.compile ~name:w.name w.source)));
    (* §3.1: one profiling (training) run. *)
    Test.make ~name:"sec3.profile-train"
      (Staged.stage (fun () ->
           ignore (Driver.train p.compiled ~args:w.train_args)));
    (* Algorithm 1: diversify + link one version. *)
    Test.make ~name:"alg1.diversify-link"
      (Staged.stage (fun () ->
           ignore
             (Driver.diversify_linked p.compiled ~config ~profile:p.profile
                ~version:1)));
    (* Figure 4: simulate the ref input of one binary. *)
    Test.make ~name:"figure4.simulate-ref"
      (Staged.stage (fun () ->
           ignore (Driver.run_image p.baseline ~args:w.ref_args)));
    (* Table 2: one Survivor comparison. *)
    Test.make ~name:"table2.survivor-compare"
      (Staged.stage (fun () ->
           ignore (Survivor.compare_sections ~original ~diversified ())));
    (* Table 3: population analysis over 5 versions. *)
    Test.make ~name:"table3.population-analyze"
      (Staged.stage (fun () ->
           ignore (Population.analyze ~thresholds:[ 2; 3 ] population)));
    (* §5.2: one full gadget scan + attack verdict. *)
    Test.make ~name:"sec52.ropgadget-attack"
      (Staged.stage (fun () ->
           ignore (Attack.attack Attack.Ropgadget original)));
  ]

let run () =
  Format.printf "@.Microbenchmarks (Bechamel, monotonic clock)@.";
  Suite.hr Format.std_formatter;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg [ clock ]
      (Test.make_grouped ~name:"psd" ~fmt:"%s %s" (tests ()))
  in
  let results = Analyze.all ols clock raw in
  (* One line per test: nanoseconds per run. *)
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Format.printf "%-34s %12.0f ns/run@." name ns
      | _ -> Format.printf "%-34s (no estimate)@." name)
    results
