(* sim-speedup: the wall-clock differential benchmark of the block-cached
   execution engine against the interpreter oracle (sim-speedup.json;
   reference report BENCH_PR8.json).

   Per workload: run the undiversified baseline on the ref input under
   both engines, assert the full observable tuple is identical (status,
   output, retired instructions/NOPs, icache misses, and cycles bit for
   bit), then time [runs] runs of each engine and keep the median wall
   clock.  Speedup = interp median / block median; the headline is the
   geometric mean across workloads, which the CI perf gate floors (the
   wall_clock.geomean_speedup row of test/perf_baseline.json).

   The same rows time the IR interpreter ([Interp.run], the engine behind
   every training run) on the same ref input, after checking that its
   return value and output equal the simulator's.  IR wall time over
   block-engine wall time, geometric mean across workloads, is
   wall_clock.ir_over_block_geomean; the perf gate caps it at 1.0, so
   training cannot fall back to tree-walker speed (about 2.7) unnoticed.

   Timing is always serial — one run at a time in the parent process,
   whatever --jobs says — because concurrent workers sharing cores would
   corrupt the wall-clock readings.  The identity checks don't care, but
   the numbers do.

   The report ends with one scaled-up run: a workload input sized far
   beyond the ref set (470.lbm at 25x the ref timestep count), executed
   under the block engine only.  At interpreter speed this input costs
   minutes; under the block engine it's an affordable bench cell — that
   is the capability the speedup buys, so the report records it. *)

let runs = 3

(* The scaled-up input: 470.lbm's second argument is the timestep count
   (ref input: 20 steps).  500 steps is ~25x the ref work. *)
let scaled_name = "470.lbm"
let scaled_args = [ 71l; 500l ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Both implementations are timed through one call shape: the oracle
   ([~reference:true], Sim.Reference) and the block engine behind
   Sim.run. *)
let time_once ~reference image ~args =
  let run = if reference then Sim.Reference.run_outcome else Sim.run_outcome in
  time (fun () ->
      match run image ~args with
      | Sim.Finished r -> r
      | Sim.Faulted { fault_msg; _ } -> raise (Sim.Fault fault_msg))

let check_identical ~what (i : Sim.result) (b : Sim.result) =
  let fail fmt =
    Printf.ksprintf
      (fun m -> failwith (Printf.sprintf "sim-speedup: %s: %s" what m))
      fmt
  in
  if b.Sim.status <> i.Sim.status then
    fail "status mismatch (interp %ld, block %ld)" i.Sim.status b.Sim.status;
  if b.Sim.output <> i.Sim.output then fail "output mismatch";
  if b.Sim.instructions <> i.Sim.instructions then
    fail "instruction count mismatch (interp %Ld, block %Ld)"
      i.Sim.instructions b.Sim.instructions;
  if b.Sim.nops_retired <> i.Sim.nops_retired then
    fail "nops_retired mismatch (interp %Ld, block %Ld)" i.Sim.nops_retired
      b.Sim.nops_retired;
  if b.Sim.icache_misses <> i.Sim.icache_misses then
    fail "icache_misses mismatch (interp %Ld, block %Ld)" i.Sim.icache_misses
      b.Sim.icache_misses;
  if Int64.bits_of_float b.Sim.cycles <> Int64.bits_of_float i.Sim.cycles then
    fail "cycles not bit-identical (interp %h, block %h)" i.Sim.cycles
      b.Sim.cycles

type row = {
  name : string;
  instructions : int64;
  ir_steps : int64;
  interp_s : float;
  block_s : float;
  ir_s : float;
  speedup : float;
  ir_over_block : float;
  block_minsn_s : float;  (* block engine throughput, M insns/s *)
}

let time_ir (p : Suite.prepared) ~args =
  time (fun () -> Driver.run_ir p.Suite.compiled ~args)

let check_ir ~what (ir : Interp.result) (b : Sim.result) =
  if ir.Interp.ret <> b.Sim.status then
    failwith
      (Printf.sprintf "sim-speedup: %s: IR status %ld, simulator %ld" what
         ir.Interp.ret b.Sim.status);
  if ir.Interp.output <> b.Sim.output then
    failwith (Printf.sprintf "sim-speedup: %s: IR output differs" what)

let measure_row (p : Suite.prepared) =
  let w = p.Suite.workload in
  Trace.with_span "sim-speedup-workload"
    ~args:[ ("workload", w.Workload.name) ]
    (fun () ->
      let args = w.Workload.ref_args in
      (* Warm-up runs double as the identity check; the block run also
         builds (or re-finds) the image's block cache, so the timed runs
         below measure steady-state execution, not decode. *)
      let ri, _ = time_once ~reference:true p.Suite.baseline ~args in
      let rb, _ = time_once ~reference:false p.Suite.baseline ~args in
      check_identical ~what:w.Workload.name ri rb;
      let rir, _ = time_ir p ~args in
      check_ir ~what:w.Workload.name rir rb;
      let median_of run =
        Stats.median (List.init runs (fun _ -> snd (run ())))
      in
      let timed ~reference =
        median_of (fun () -> time_once ~reference p.Suite.baseline ~args)
      in
      let interp_s = timed ~reference:true in
      let block_s = timed ~reference:false in
      let ir_s = median_of (fun () -> time_ir p ~args) in
      {
        name = w.Workload.name;
        instructions = ri.Sim.instructions;
        ir_steps = rir.Interp.steps;
        interp_s;
        block_s;
        ir_s;
        speedup = interp_s /. block_s;
        ir_over_block = ir_s /. block_s;
        block_minsn_s = Int64.to_float rb.Sim.instructions /. block_s /. 1e6;
      })

let run_scaled () =
  match
    List.find_opt
      (fun (w : Workload.t) -> w.name = scaled_name)
      (Suite.workloads ())
  with
  | None -> None (* --workloads excluded it; skip the scaled cell *)
  | Some w ->
      let p = Suite.prepared w in
      let r, wall =
        time_once ~reference:false p.Suite.baseline ~args:scaled_args
      in
      Some (r, wall)

let run () =
  Format.printf
    "@.Sim speedup: block-cached engine vs the interpreter oracle (median \
     of %d runs@.per engine, ref inputs, serial timing)@."
    runs;
  Suite.hr Format.std_formatter;
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  Format.printf "%-16s %12s %10s %10s %8s %10s %10s %8s@." "workload" "insns"
    "interp-s" "block-s" "speedup" "Minsn/s" "ir-s" "ir/block";
  let rows =
    List.filter_map
      (fun p ->
        match measure_row p with
        | row ->
            Format.printf "%-16s %12Ld %10.3f %10.4f %7.1fx %10.1f %10.4f %8.2f@."
              row.name row.instructions row.interp_s row.block_s row.speedup
              row.block_minsn_s row.ir_s row.ir_over_block;
            Some row
        | exception e ->
            Suite.record_failure
              ~cell:("sim-speedup/" ^ p.Suite.workload.Workload.name)
              (Printexc.to_string e);
            None)
      prepared
  in
  Suite.hr Format.std_formatter;
  let geomean = Stats.geomean_ratio (List.map (fun r -> r.speedup) rows) in
  let ir_over_block =
    Stats.geomean_ratio (List.map (fun r -> r.ir_over_block) rows)
  in
  Format.printf "%-16s %52.1fx %20.2f@." "Geometric Mean" geomean
    ir_over_block;
  let scaled = run_scaled () in
  (match scaled with
  | None -> Format.printf "(scaled run skipped: %s not selected)@." scaled_name
  | Some (r, wall) ->
      Format.printf
        "scaled: %s x%ld steps — %Ld insns in %.2fs under the block engine \
         (est. %.0fs under interp)@."
        scaled_name
        (List.nth scaled_args 1)
        r.Sim.instructions wall (wall *. geomean));
  let per_workload f =
    Jsonw.List
      (List.map
         (fun row -> Jsonw.Obj (("name", Jsonw.Str row.name) :: f row))
         rows)
  in
  let scaled_json f =
    match scaled with None -> Jsonw.Null | Some s -> Jsonw.Obj (f s)
  in
  Suite.write_report ~experiment:"sim-speedup"
    ~deterministic:
      [
        ("runs_per_engine", Jsonw.int runs);
        ( "workloads",
          per_workload (fun row ->
              [
                ("instructions", Jsonw.Int row.instructions);
                ("ir_steps", Jsonw.Int row.ir_steps);
              ]) );
        ( "scaled",
          scaled_json (fun (r, _) ->
              [
                ("name", Jsonw.Str scaled_name);
                ( "args",
                  Jsonw.List
                    (List.map (fun a -> Jsonw.int (Int32.to_int a)) scaled_args)
                );
                ("instructions", Jsonw.Int r.Sim.instructions);
                ("cycles", Jsonw.Float r.Sim.cycles);
              ]) );
        ("metrics", Metrics.dump ());
      ]
    ~wall_clock:
      [
        ( "workloads",
          per_workload (fun row ->
              [
                ("interp_wall_s", Jsonw.Float row.interp_s);
                ("block_wall_s", Jsonw.Float row.block_s);
                ("speedup", Jsonw.Float row.speedup);
                ("block_minsn_per_s", Jsonw.Float row.block_minsn_s);
                ("ir_wall_s", Jsonw.Float row.ir_s);
                ("ir_over_block", Jsonw.Float row.ir_over_block);
              ]) );
        ("geomean_speedup", Jsonw.Float geomean);
        ("ir_over_block_geomean", Jsonw.Float ir_over_block);
        ( "scaled",
          scaled_json (fun (_, wall) ->
              [
                ("block_wall_s", Jsonw.Float wall);
                ("est_interp_wall_s", Jsonw.Float (wall *. geomean));
              ]) );
      ]
    ()
