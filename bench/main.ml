(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation, plus heuristic analysis, ablations, telemetry and
   Bechamel microbenchmarks of the underlying kernels.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- figure4      # one experiment
     dune exec bench/main.exe -- --versions 5 figure4
     dune exec bench/main.exe -- --workloads 429.mcf,470.lbm telemetry
     dune exec bench/main.exe -- --jobs auto telemetry
     dune exec bench/main.exe -- --trace bench.trace telemetry
     dune exec bench/main.exe -- --out-dir reports telemetry

   Experiments: table1 figure4 table2 table3 php-attack heuristic
   ablation micro fuzz-coverage telemetry parallel-scaling incremental
   pgo-loop sim-speedup serve portfolio.
   The report-writing experiments (telemetry, parallel-scaling,
   incremental, pgo-loop, sim-speedup, serve, portfolio) each write
   <out-dir>/<experiment>.json in the one psd-bench/1 envelope (see
   Suite.write_report); --out-dir defaults to bench-out/, which git
   ignores, so the committed BENCH_PR*.json reference reports are never
   overwritten.  sim-speedup timing is serial regardless of --jobs.
   --jobs N|auto runs each experiment's workload grid on the parallel
   pool — the reports' deterministic sections are byte-identical at
   every -j.  Any failed cell or experiment is reported at the end and
   makes the exit status nonzero. *)

let experiments =
  [
    ("table1", Exp_table1.run);
    ("heuristic", Exp_heuristic.run);
    ("figure4", Exp_figure4.run);
    ("table2", Exp_table2.run);
    ("table3", Exp_table3.run);
    ("php-attack", Exp_php.run);
    ("ablation", Exp_ablation.run);
    ("micro", Exp_micro.run);
    ("fuzz-coverage", Exp_fuzz.run);
    ("telemetry", Exp_telemetry.run);
    ("parallel-scaling", Exp_scaling.run);
    ("incremental", Exp_incremental.run);
    ("pgo-loop", Exp_pgo.run);
    ("sim-speedup", Exp_simspeed.run);
    ("serve", Exp_serve.run);
    ("portfolio", Exp_portfolio.run);
  ]

let usage () =
  Format.printf
    "usage: main.exe [--versions N] [--workloads A,B,..] [--jobs N|auto] \
     [--trace FILE] [--out-dir DIR] [--serve-population N] \
     [experiment...]@.";
  Format.printf "experiments: %s@."
    (String.concat " " (List.map fst experiments));
  exit 1

let () =
  let trace_file = ref None in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--versions" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            Suite.perf_versions := v;
            parse selected rest
        | _ -> usage ())
    | "--workloads" :: names :: rest -> (
        match
          List.map Workloads.find (String.split_on_char ',' names)
        with
        | ws ->
            Suite.selected_workloads := ws;
            parse selected rest
        | exception Not_found ->
            Format.printf "unknown workload in %S@." names;
            usage ())
    | "--jobs" :: j :: rest -> (
        match Pool.jobs_of_string j with
        | Ok jobs ->
            Suite.jobs := jobs;
            parse selected rest
        | Error msg ->
            Format.printf "--jobs: %s@." msg;
            usage ())
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse selected rest
    | "--out-dir" :: dir :: rest ->
        Suite.out_dir := dir;
        parse selected rest
    | "--serve-population" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            Suite.serve_population := v;
            parse selected rest
        | _ -> usage ())
    | ("-h" | "--help") :: _ -> usage ()
    | name :: rest ->
        if List.mem_assoc name experiments then parse (name :: selected) rest
        else begin
          Format.printf "unknown experiment %S@." name;
          usage ()
        end
  in
  let selected = parse [] args in
  let to_run =
    match selected with [] -> List.map fst experiments | l -> l
  in
  if !trace_file <> None then Trace.start ();
  let t0 = Unix.gettimeofday () in
  (* An experiment that raises must not take the harness (or the other
     experiments) with it — record it and keep going; the failure
     summary below turns any recorded failure into a nonzero exit, which
     is what CI keys on. *)
  List.iter
    (fun name ->
      let t = Unix.gettimeofday () in
      (try
         Trace.with_span "experiment" ~args:[ ("name", name) ] (fun () ->
             (List.assoc name experiments) ())
       with e ->
         Suite.record_failure ~cell:name
           (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ()));
      Format.printf "[%s finished in %.1fs]@." name (Unix.gettimeofday () -. t))
    to_run;
  Format.printf "@.total: %.1fs@." (Unix.gettimeofday () -. t0);
  (match !trace_file with
  | None -> ()
  | Some file ->
      Trace.stop ();
      Trace.write file;
      Format.printf "trace: %d events written to %s@." (Trace.event_count ())
        file);
  match List.rev !Suite.failures with
  | [] -> ()
  | failures ->
      Format.printf "@.%d FAILED cell(s):@." (List.length failures);
      List.iter
        (fun (cell, msg) -> Format.printf "  %s: %s@." cell msg)
        failures;
      exit 1
