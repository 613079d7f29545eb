(* Every workload must compile, run on its training input, and behave
   identically under the reference interpreter and the CPU simulator.
   (The heavier ref inputs are exercised by the benchmark harness.) *)

let check_workload (w : Workload.t) () =
  let c = Driver.compile ~name:w.name w.source in
  let ir = Driver.run_ir c ~args:w.train_args in
  let image = Driver.link_baseline c in
  let native = Driver.run_image image ~args:w.train_args in
  Alcotest.(check string) "output matches" ir.Interp.output native.Sim.output;
  Alcotest.(check int32) "status matches" ir.Interp.ret native.Sim.status;
  (* A training run must actually exercise hot code: the profile needs a
     skewed distribution for the paper's technique to matter. *)
  let profile = Profile.of_block_counts ir.Interp.counts.blocks in
  Alcotest.(check bool) "profile has hot blocks" true
    (Profile.max_count profile > 50L);
  (* Every workload prints something (its checksum). *)
  Alcotest.(check bool) "produces output" true
    (String.length ir.Interp.output > 0)

let check_distinct_inputs (w : Workload.t) () =
  (* train and ref must be different workloads (different size or seed) —
     profiling on the measurement input would be cheating. *)
  Alcotest.(check bool) "train <> ref" true (w.train_args <> w.ref_args)

let check_diversified_still_correct (w : Workload.t) () =
  let c = Driver.compile ~name:w.name w.source in
  let profile = Driver.train c ~args:w.train_args in
  let base = Driver.run_image (Driver.link_baseline c) ~args:w.train_args in
  let config = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  let image, _ = Driver.diversify_linked c ~config ~profile ~version:0 in
  let r = Driver.run_image image ~args:w.train_args in
  Alcotest.(check string) "diversified output" base.Sim.output r.Sim.output

let php_program_cases =
  List.map
    (fun (p : Phpvm.profile_program) ->
      Alcotest.test_case p.prog_name `Quick (fun () ->
          let w = Workloads.phpvm in
          let c = Driver.compile ~name:w.name w.source in
          let args = [ p.prog_id; p.train_n ] in
          let ir = Driver.run_ir c ~args in
          let native = Driver.run_image (Driver.link_baseline c) ~args in
          Alcotest.(check string) "output" ir.Interp.output native.Sim.output;
          (* The VM must do real work: its step counter is printed as the
             second number. *)
          match String.split_on_char '\n' (String.trim ir.Interp.output) with
          | [ _checksum; steps ] ->
              Alcotest.(check bool) "enough VM steps" true
                (int_of_string steps > 500)
          | _ -> Alcotest.fail "unexpected phpvm output shape"))
    Workloads.php_profiles

let check_opt_differential (w : Workload.t) () =
  (* Optimization must preserve behaviour on every suite program: O0 and
     O2 (the latter with per-pass IR verification on) must produce
     identical simulator output and exit codes, and the standard
     sequence spelled out as a --passes pipeline must reproduce the
     default O2 binary bit for bit. *)
  let c0 = Driver.compile ~opt:Pipeline.O0 ~name:w.name w.source in
  let c2 = Driver.compile ~verify_each:true ~name:w.name w.source in
  let custom =
    match
      Pipeline.descr_of_string "simplify-cfg,constfold,copyprop,cse,dce"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let cp =
    Driver.compile ~passes:custom ~verify_each:true ~name:w.name w.source
  in
  let r0 = Driver.run_image (Driver.link_baseline c0) ~args:w.train_args in
  let r2 = Driver.run_image (Driver.link_baseline c2) ~args:w.train_args in
  Alcotest.(check string) "O0/O2 simulator output" r0.Sim.output r2.Sim.output;
  Alcotest.(check int32) "O0/O2 exit status" r0.Sim.status r2.Sim.status;
  Alcotest.(check bool) "custom pipeline reproduces the O2 binary" true
    ((Driver.link_baseline cp).Link.text
    = (Driver.link_baseline c2).Link.text)

let test_find () =
  Alcotest.(check string) "full name" "473.astar"
    (Workloads.find "473.astar").Workload.name;
  Alcotest.(check string) "suffix" "473.astar"
    (Workloads.find "astar").Workload.name;
  Alcotest.(check int) "nineteen benchmarks" 19 (List.length Workloads.all);
  match Workloads.find "no-such-benchmark" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let suite =
  [
    ( "workloads.train",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.name `Quick (check_workload w))
        Workloads.all );
    ( "workloads.inputs",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.name `Quick (check_distinct_inputs w))
        Workloads.all );
    ( "workloads.diversified",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.name `Quick (check_diversified_still_correct w))
        (* the three cheapest cover the property without slowing the suite *)
        [ Workloads.find "mcf"; Workloads.find "lbm"; Workloads.find "astar" ] );
    ( "workloads.opt-differential",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.name `Quick (check_opt_differential w))
        Workloads.all );
    ("workloads.phpvm", php_program_cases);
    ("workloads.registry", [ Alcotest.test_case "find" `Quick test_find ]);
  ]
