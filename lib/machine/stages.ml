let mir_size (f : Mir.func) =
  List.fold_left
    (fun n (b : Mir.block) -> n + 1 + List.length b.Mir.insns)
    0 f.blocks

let record cctx ~pass ~func ~before ~after ~bytes ~changed dt =
  Cctx.record cctx
    {
      Cctx.stage = "machine";
      pass;
      func;
      time_s = dt;
      items_before = before;
      items_after = after;
      bytes;
      changed;
    }

(* Process-wide stage-run counters: the store-backed driver's warm-build
   guarantee ("a warm rebuild runs zero isel/liveness/regalloc") is
   asserted on these, process-wide rather than per compilation. *)
let count_stage pass =
  Metrics.incr (Metrics.counter ("machine." ^ pass ^ ".runs"))

let func ~cctx (irf : Ir.func) : Asm.func =
  let name = irf.Ir.name in
  let irn = Ir.size irf in
  count_stage "isel";
  let mf, dt = Cctx.timed (fun () -> Isel.func irf) in
  let mirn = mir_size mf in
  record cctx ~pass:"isel" ~func:name ~before:irn ~after:mirn ~bytes:0
    ~changed:true dt;
  count_stage "liveness";
  let live, dt = Cctx.timed (fun () -> Liveness.analyze mf) in
  record cctx ~pass:"liveness" ~func:name ~before:mirn ~after:mirn ~bytes:0
    ~changed:false dt;
  count_stage "regalloc";
  let assignment, dt = Cctx.timed (fun () -> Regalloc.allocate ~live mf) in
  record cctx ~pass:"regalloc" ~func:name ~before:mirn
    ~after:(mirn + assignment.Regalloc.spill_count)
    ~bytes:0 ~changed:false dt;
  count_stage "emit";
  let asm, dt = Cctx.timed (fun () -> Emit.func mf assignment) in
  record cctx ~pass:"emit" ~func:name ~before:mirn
    ~after:(List.length (Asm.items asm))
    ~bytes:(Asm.func_size asm) ~changed:true dt;
  asm
