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
  (* Table 3's key sets of versions 0-4. *)
  let keys =
    Driver.population p.Suite.compiled ~config ~profile:p.Suite.profile ~n:5
      ~init:[] (fun acc (img : Link.image) ->
        Population.section_keys img.Link.text :: acc)
  in
  (* Algorithm 1's variant build, layer by layer, on version 1: the inputs
     of each step are the outputs of the step before, built once here. *)
  let c = p.Suite.compiled in
  let ctx =
    { Divpass.prog = c.Driver.name; config; profile = p.Suite.profile; version = 1 }
  in
  let nop_pass =
    List.find (fun (q : Divpass.pass) -> q.Divpass.pname = "nop") Divpass.registry
  in
  let assemble funcs =
    List.map2
      (fun (o : Objfile.func_obj) f ->
        let m = o.Objfile.meta in
        Objfile.of_asm ~ir_digest:m.Objfile.ir_digest
          ~pipeline:m.Objfile.pipeline ~arity:m.Objfile.arity f)
      c.Driver.objects funcs
  in
  let funcs = fst (nop_pass.Divpass.run ctx c.Driver.asm) in
  let objects = assemble funcs in
  let relink () =
    Link.link_objects ~expect_main_arity:c.Driver.main_arity ~objects
      ~globals:c.Driver.modul.Ir.globals ()
  in
  [
    (* Figure 3 pipeline: full compilation of one benchmark. *)
    Test.make ~name:"figure3.compile-O2"
      (Staged.stage (fun () ->
           ignore (Driver.compile ~name:w.name w.source)));
    (* §3.1: one profiling (training) run. *)
    Test.make ~name:"sec3.profile-train"
      (Staged.stage (fun () ->
           ignore (Driver.train p.compiled ~args:w.train_args)));
    (* Algorithm 1, one version: the NOP pass, re-assembly of the
       diversified functions, and the relink. *)
    Test.make ~name:"alg1.nop-pass"
      (Staged.stage (fun () -> ignore (nop_pass.Divpass.run ctx c.Driver.asm)));
    Test.make ~name:"alg1.assemble"
      (Staged.stage (fun () -> ignore (assemble funcs)));
    Test.make ~name:"alg1.relink" (Staged.stage (fun () -> ignore (relink ())));
    (* The daemon's per-variant work: Sdaemon.build_variant without
       images, i.e. all three steps above plus the text digest. *)
    Test.make ~name:"serve.build-variant"
      (Staged.stage (fun () ->
           let image, _ =
             Driver.diversify_linked c ~config ~profile:p.Suite.profile
               ~version:1
           in
           ignore (Digest.to_hex (Digest.string image.Link.text))));
    (* Figure 4: simulate the ref input of one binary. *)
    Test.make ~name:"figure4.simulate-ref"
      (Staged.stage (fun () ->
           ignore (Driver.run_image p.baseline ~args:w.ref_args)));
    (* The same run with the profile and sample hooks on: the hooked
       step family behind telemetry's attribution and the PGO record. *)
    Test.make ~name:"figure4.simulate-ref-hooked"
      (Staged.stage (fun () ->
           ignore
             (Driver.run_image p.baseline ~profile:true
                ~sample_period:Sim.default_sample_period ~args:w.ref_args)));
    (* Table 2: one Survivor comparison. *)
    Test.make ~name:"table2.survivor-compare"
      (Staged.stage (fun () ->
           ignore (Survivor.surviving_gadgets ~original ~diversified ())));
    (* Table 3: one version's scan, and the count over 5 versions. *)
    Test.make ~name:"table3.section-keys"
      (Staged.stage (fun () -> ignore (Population.section_keys diversified)));
    Test.make ~name:"table3.population-count"
      (Staged.stage (fun () ->
           ignore (Population.of_keys ~thresholds:[ 2; 3 ] keys)));
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
