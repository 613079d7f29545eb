(* The block-cached engine's differential test wall.

   The block engine (Bsim, behind Sim.run) re-implements the simulator's
   semantics for speed, so every observable it produces is checked
   against the fetch-decode interpreter — the oracle, Sim.Reference —
   over:

   - the full workload grid: 19 workloads × (baseline + 5 paper configs
     × 3 seeds), each run with the execution-profile hook on and cycle
     sampling at a deliberately odd period (101), comparing status,
     output, retired instructions and NOPs, icache misses, cycles bit
     for bit, all three exec_profile arrays, the sample_profile, and
     the back-mapped Sprof recording byte for byte;
   - trap parity: every corpus regression program at O0 and O2 under
     both engines — same fault message, and the same partial counters
     (cycles included) at the faulting instruction;
   - the fuel limit: both engines fault at exactly the same retired
     instruction, with identical partial tuples;
   - gadget entry (run_at): both engines agree from arbitrary text
     offsets, where execution never saw a function prologue;
   - the decode memo: owned by the shared block cache, physically one
     array across repeated runs of the same image. *)

let sample_period = 101
let seeds = [ 0; 1; 2 ]

(* The two implementations through one call shape: [~reference:true] is
   the oracle, [~reference:false] the production block engine. *)
let run_outcome ~reference =
  if reference then Sim.Reference.run_outcome else Sim.run_outcome

let run_at_outcome ~reference =
  if reference then Sim.Reference.run_at_outcome else Sim.run_at_outcome

let result_of what = function
  | Sim.Finished r -> r
  | Sim.Faulted f -> Alcotest.failf "%s: faulted (%s)" what f.fault_msg

(* ---------------- full-tuple equality ---------------- *)

let bits = Int64.bits_of_float

let check_floats_equal what a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %h vs %h (not bit-identical)" what a b

let check_float_array what (a : float array) (b : float array) =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x -> check_floats_equal (Printf.sprintf "%s.(%d)" what i) x b.(i))
    a

let check_exec_profile what (a : Sim.exec_profile option)
    (b : Sim.exec_profile option) =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
      Alcotest.(check bool)
        (what ^ " insn_counts") true
        (a.Sim.insn_counts = b.Sim.insn_counts);
      Alcotest.(check bool)
        (what ^ " nop_counts") true
        (a.Sim.nop_counts = b.Sim.nop_counts);
      check_float_array (what ^ " cycle_counts") a.Sim.cycle_counts
        b.Sim.cycle_counts
  | _ -> Alcotest.failf "%s: exec_profile presence differs" what

let check_sample_profile what (a : Sim.sample_profile option)
    (b : Sim.sample_profile option) =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
      check_floats_equal (what ^ " period") a.Sim.period b.Sim.period;
      Alcotest.(check bool)
        (what ^ " sample_counts") true
        (a.Sim.sample_counts = b.Sim.sample_counts);
      Alcotest.(check int64)
        (what ^ " samples_taken") a.Sim.samples_taken b.Sim.samples_taken;
      check_floats_equal
        (what ^ " sample_overhead_cycles")
        a.Sim.sample_overhead_cycles b.Sim.sample_overhead_cycles
  | _ -> Alcotest.failf "%s: sample_profile presence differs" what

(* Interp result [i] vs block result [b]: everything must match. *)
let check_results_equal what (i : Sim.result) (b : Sim.result) =
  Alcotest.(check int32) (what ^ " status") i.Sim.status b.Sim.status;
  Alcotest.(check string) (what ^ " output") i.Sim.output b.Sim.output;
  Alcotest.(check int64)
    (what ^ " instructions") i.Sim.instructions b.Sim.instructions;
  Alcotest.(check int64)
    (what ^ " nops_retired") i.Sim.nops_retired b.Sim.nops_retired;
  Alcotest.(check int64)
    (what ^ " icache_misses") i.Sim.icache_misses b.Sim.icache_misses;
  check_floats_equal (what ^ " cycles") i.Sim.cycles b.Sim.cycles;
  check_exec_profile (what ^ " exec_profile") i.Sim.exec_profile
    b.Sim.exec_profile;
  check_sample_profile (what ^ " sample_profile") i.Sim.sample_profile
    b.Sim.sample_profile

let check_outcomes_equal what (i : Sim.outcome) (b : Sim.outcome) =
  match (i, b) with
  | Sim.Finished ri, Sim.Finished rb -> check_results_equal what ri rb
  | Sim.Faulted fi, Sim.Faulted fb ->
      Alcotest.(check string)
        (what ^ " fault message") fi.fault_msg fb.fault_msg;
      check_results_equal (what ^ " partial") fi.partial fb.partial
  | Sim.Finished _, Sim.Faulted f ->
      Alcotest.failf "%s: block engine faulted (%s), interp finished" what
        f.fault_msg
  | Sim.Faulted f, Sim.Finished _ ->
      Alcotest.failf "%s: interp faulted (%s), block engine finished" what
        f.fault_msg

(* ---------------- the workload equivalence grid ---------------- *)

let prepared (w : Workload.t) =
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  (c, Driver.link_baseline_cached c)

let test_workload_grid (w : Workload.t) () =
  let c, baseline = prepared w in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let images =
    ("baseline", baseline)
    :: List.concat_map
         (fun (cname, config) ->
           List.map
             (fun version ->
               ( Printf.sprintf "%s/v%d" cname version,
                 fst (Driver.diversify_linked c ~config ~profile ~version) ))
             seeds)
         Config.paper_configs
  in
  List.iter
    (fun (label, image) ->
      let what = w.Workload.name ^ "/" ^ label in
      let run ~reference =
        result_of what
          (run_outcome ~reference ~profile:true ~sample_period image
             ~args:w.Workload.train_args)
      in
      let ri = run ~reference:true in
      let rb = run ~reference:false in
      check_results_equal what ri rb;
      (* The production recording built from each run must also be
         byte-identical — the whole PGO loop sits on top of it. *)
      let sprof r =
        Sprof.to_json (Sprof.of_run ~image ~workload:w.Workload.name r)
      in
      Alcotest.(check string) (what ^ " sprof json") (sprof ri) (sprof rb))
    images

(* ---------------- trap parity over the corpus ---------------- *)

let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  Sys.readdir (corpus_dir ())
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trap_fuel = 3_000_000L

let test_corpus_trap_parity () =
  let faulted = ref 0 in
  List.iter
    (fun file ->
      let src = read_file (Filename.concat (corpus_dir ()) file) in
      let args = Fuzz.parse_args_header src in
      List.iter
        (fun level ->
          let c = Driver.compile ~opt:level ~name:file src in
          let image = Driver.link_baseline c in
          let run ~reference =
            run_outcome ~reference ~fuel:trap_fuel ~profile:true image ~args
          in
          let oi = run ~reference:true in
          let ob = run ~reference:false in
          (match oi with Sim.Faulted _ -> incr faulted | _ -> ());
          check_outcomes_equal
            (Printf.sprintf "%s@%s" file (Oracle.level_name level))
            oi ob)
        [ Pipeline.O0; Pipeline.O2 ])
    (corpus_files ());
  (* The point of the corpus is that several of these *do* trap
     mid-block — make sure the parity check above actually exercised
     the fault path. *)
  Alcotest.(check bool)
    (Printf.sprintf "corpus exercised faults (%d)" !faulted)
    true (!faulted >= 4)

(* ---------------- fuel exhaustion fires at the same point -------- *)

let test_fuel_exhaustion_parity () =
  let w = Workloads.find "470.lbm" in
  let _, baseline = prepared w in
  let full =
    result_of "full run"
      (Sim.Reference.run_outcome baseline ~args:w.Workload.train_args)
  in
  let fuel = Int64.div full.Sim.instructions 2L in
  let run ~reference =
    run_outcome ~reference ~fuel ~profile:true baseline
      ~args:w.Workload.train_args
  in
  let oi = run ~reference:true in
  let ob = run ~reference:false in
  check_outcomes_equal "fuel exhaustion" oi ob;
  match oi with
  | Sim.Faulted { fault_msg; partial } ->
      Alcotest.(check string) "fuel fault message" "fuel exhausted" fault_msg;
      (* The fault fires while retiring instruction fuel+1: the counter
         has already been bumped past the limit, the instruction's own
         cost has not been charged. *)
      Alcotest.(check int64)
        "fault at exactly fuel+1 retired" (Int64.add fuel 1L)
        partial.Sim.instructions
  | Sim.Finished _ -> Alcotest.fail "expected fuel exhaustion"

(* ---------------- gadget entry: run_at parity ---------------- *)

let test_run_at_parity () =
  let w = Workloads.find "429.mcf" in
  let _, baseline = prepared w in
  let tlen = String.length baseline.Link.text in
  (* A spread of entry offsets across .text — mostly instruction
     middles, exactly the off-manifold entries ROP uses.  Fuel-bounded:
     an entry that reaches the main loop would otherwise run the whole
     program twice per offset. *)
  let offsets = List.init 64 (fun i -> i * (tlen - 1) / 63) in
  List.iter
    (fun start_offset ->
      let run ~reference =
        run_at_outcome ~reference ~fuel:50_000L
          ~stack_image:[ 0x20l; 0x40l; 0x60l ] baseline ~start_offset
      in
      check_outcomes_equal
        (Printf.sprintf "run_at offset %d" start_offset)
        (run ~reference:true) (run ~reference:false))
    offsets

(* ---------------- decode memo ownership ---------------- *)

let test_decode_memo_shared () =
  let w = Workloads.find "470.lbm" in
  let _, baseline = prepared w in
  let d1 = Bsim.decoded (Bsim.cache_for baseline Timing.default) in
  let d2 = Bsim.decoded (Bsim.cache_for baseline Timing.default) in
  Alcotest.(check bool) "decode memo physically shared" true (d1 == d2);
  (* And a fresh run through the public API keeps using it (no per-run
     rebuild): the cache is keyed on text digest, so re-linking the same
     program still hits. *)
  let (_ : Sim.outcome) =
    Sim.Reference.run_outcome baseline ~args:w.Workload.train_args
  in
  let d3 = Bsim.decoded (Bsim.cache_for baseline Timing.default) in
  Alcotest.(check bool) "still the same array after a run" true (d1 == d3)

(* ---------------- determinism of the block engine ---------------- *)

let test_block_rerun_deterministic () =
  let w = Workloads.find "473.astar" in
  let _, baseline = prepared w in
  let run () =
    Sim.run ~profile:true ~sample_period baseline ~args:w.Workload.train_args
  in
  check_results_equal "block re-run" (run ()) (run ())

(* ---------------- sim.* metrics recorded once, identically ------- *)

let sim_counters =
  [
    "sim.runs"; "sim.instructions"; "sim.nops_retired"; "sim.icache_misses";
    "sim.sampled_runs"; "sim.samples"; "sim.faults";
  ]

(* The sim.* counter increments and the sim.sample_overhead_pct
   observations (as float bits) recorded while [f] runs. *)
let sim_metric_delta f =
  let counters () =
    List.map (fun n -> Metrics.counter_value (Metrics.counter n)) sim_counters
  in
  let overheads () =
    Metrics.histogram_values (Metrics.histogram "sim.sample_overhead_pct")
  in
  let c0 = counters () and h0 = List.length (overheads ()) in
  ignore (f ());
  ( List.combine sim_counters (List.map2 Int64.sub (counters ()) c0),
    List.filteri (fun i _ -> i >= h0) (overheads ()) |> List.map bits )

let check_delta what (counters, overheads) (counters', overheads') =
  Alcotest.(check (list (pair string int64)))
    (what ^ " counters") counters counters';
  Alcotest.(check (list int64)) (what ^ " overhead observations") overheads
    overheads'

let test_metrics_parity () =
  let w = Workloads.find "429.mcf" in
  let _, baseline = prepared w in
  let delta ~reference =
    sim_metric_delta (fun () ->
        run_outcome ~reference ~sample_period baseline
          ~args:w.Workload.train_args)
  in
  let ((counters, overheads) as di) = delta ~reference:true in
  check_delta "interp vs block" di (delta ~reference:false);
  Alcotest.(check int64) "one run" 1L (List.assoc "sim.runs" counters);
  Alcotest.(check int64) "one sampled run" 1L
    (List.assoc "sim.sampled_runs" counters);
  Alcotest.(check int) "one overhead observation" 1 (List.length overheads);
  (* A faulting run records sim.faults and nothing else. *)
  let fuel = Int64.div (List.assoc "sim.instructions" counters) 2L in
  let faulted ~reference =
    sim_metric_delta (fun () ->
        run_outcome ~reference ~fuel ~sample_period baseline
          ~args:w.Workload.train_args)
  in
  let only_fault =
    ( List.map (fun n -> (n, if n = "sim.faults" then 1L else 0L)) sim_counters,
      [] )
  in
  check_delta "faulted interp" only_fault (faulted ~reference:true);
  check_delta "faulted block" only_fault (faulted ~reference:false)

let suite =
  [
    ( "sim_engine.traps",
      [
        Alcotest.test_case "corpus trap parity" `Quick
          test_corpus_trap_parity;
        Alcotest.test_case "fuel exhaustion parity" `Quick
          test_fuel_exhaustion_parity;
        Alcotest.test_case "run_at parity" `Quick test_run_at_parity;
        Alcotest.test_case "decode memo shared" `Quick
          test_decode_memo_shared;
        Alcotest.test_case "block re-run deterministic" `Quick
          test_block_rerun_deterministic;
        Alcotest.test_case "sim metrics parity" `Quick test_metrics_parity;
      ] );
    ( "sim_engine.grid",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.Workload.name `Slow (test_workload_grid w))
        Workloads.all );
  ]
