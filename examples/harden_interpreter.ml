(* Hardening a language runtime — the paper's PHP case study in miniature.

     dune exec examples/harden_interpreter.exe

   The "network-facing application" is a bytecode interpreter (phpvm).
   There is no canonical training input for an interpreter, so — like the
   paper — we profile it on several scripts with different opcode mixes
   and check that every resulting profile yields diversified binaries
   that (a) still run everything correctly, (b) cost almost nothing, and
   (c) no longer expose an attackable gadget set. *)

let () =
  let w = Workloads.phpvm in
  let compiled = Driver.compile ~name:w.Workload.name w.source in
  let baseline = Driver.link_baseline compiled in

  Format.printf "interpreter: %d bytes of .text@."
    (String.length baseline.Link.text);

  (* The undiversified interpreter is attackable. *)
  let v = Attack.attack Attack.Ropgadget baseline.Link.text in
  Format.printf "undiversified: ROP attack feasible = %b@." v.Attack.feasible;

  let config = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  List.iter
    (fun (prof : Phpvm.profile_program) ->
      let train_args = [ prof.Phpvm.prog_id; prof.train_n ] in
      let profile = Driver.train compiled ~args:train_args in
      let image, stats =
        Driver.diversify_linked compiled ~config ~profile ~version:0
      in
      (* Correctness on a different script than the one profiled. *)
      let other = List.nth Workloads.php_profiles 2 in
      let check_args = [ other.Phpvm.prog_id; other.train_n ] in
      let expect = Driver.run_image baseline ~args:check_args in
      let got = Driver.run_image image ~args:check_args in
      assert (expect.Sim.output = got.Sim.output);
      (* Overhead on the profiled script's ref input. *)
      let ref_args = [ prof.Phpvm.prog_id; prof.ref_n ] in
      let base_run = Driver.run_image baseline ~args:ref_args in
      let div_run = Driver.run_image image ~args:ref_args in
      let overhead =
        100.0 *. ((div_run.Sim.cycles /. base_run.Sim.cycles) -. 1.0)
      in
      (* Security: the surviving gadget set must not support an attack. *)
      let offsets =
        List.map
          (fun (g : Finder.t) -> g.Finder.offset)
          (Survivor.surviving_gadgets ~original:baseline.Link.text
             ~diversified:image.Link.text ())
      in
      let surviving_gadgets =
        List.filter
          (fun (g : Finder.t) -> List.mem g.Finder.offset offsets)
          (Attack.scan Attack.Ropgadget baseline.Link.text)
      in
      let verdict = Attack.attack_on_gadgets Attack.Ropgadget surviving_gadgets in
      Format.printf
        "profile %-14s +%4d NOPs  overhead %+5.2f%%  surviving gadgets %3d  \
         attackable %b@."
        prof.prog_name (Divpass.nop_stats stats).Divpass.changed overhead
        (List.length surviving_gadgets)
        verdict.Attack.feasible)
    Workloads.php_profiles
