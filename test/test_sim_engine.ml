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
     both engines, with the execution-profile hook on, off, and with
     sampling — same fault message, and the same partial counters
     (cycles included) at the faulting instruction;
   - the fuel limit: both engines fault at exactly the same retired
     instruction, with identical partial tuples, at 40 consecutive
     limits so the fault lands at every position of several runs;
   - gadget entry (run_at): both engines agree from arbitrary text
     offsets, where execution never saw a function prologue, and from
     every offset of one 128-byte window;
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

(* Interp outcome [i] vs block outcome [b]: everything must match
   (Oracle.engine_mismatch is the one parity rule). *)
let check_parity what (i : Sim.outcome) (b : Sim.outcome) =
  Option.iter (Alcotest.failf "%s: %s" what) (Oracle.engine_mismatch i b)

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
      check_parity what (Sim.Finished ri) (Sim.Finished rb);
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

(* Every corpus program at O0 and O2 under both engines, each run made
   by [run] (the hooks to switch on). *)
let corpus_trap_parity run () =
  let faulted = ref 0 in
  List.iter
    (fun file ->
      let src = read_file (Filename.concat (corpus_dir ()) file) in
      let args = Fuzz.parse_args_header src in
      List.iter
        (fun level ->
          let c = Driver.compile ~opt:level ~name:file src in
          let image = Driver.link_baseline c in
          let oi = run ~reference:true image ~args in
          let ob = run ~reference:false image ~args in
          (match oi with Sim.Faulted _ -> incr faulted | _ -> ());
          check_parity
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

let test_corpus_trap_parity =
  corpus_trap_parity (fun ~reference image ~args ->
      run_outcome ~reference ~fuel:trap_fuel ~profile:true image ~args)

let test_corpus_trap_parity_unprofiled =
  corpus_trap_parity (fun ~reference image ~args ->
      run_outcome ~reference ~fuel:trap_fuel image ~args)

let test_corpus_trap_parity_sampled =
  corpus_trap_parity (fun ~reference image ~args ->
      run_outcome ~reference ~fuel:trap_fuel ~sample_period image ~args)

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
  check_parity "fuel exhaustion" oi ob;
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

(* Fuel limits at 40 consecutive values, so the fault lands at every
   position of several straight-line runs — first instruction, middle,
   the branch that ends the run — with the execution-profile hook off
   and on. *)
let test_fuel_sweep_parity () =
  let w = Workloads.find "470.lbm" in
  let _, baseline = prepared w in
  List.iter
    (fun profile ->
      for k = 0 to 39 do
        let fuel = Int64.of_int (20_000 + k) in
        let run ~reference =
          run_outcome ~reference ~fuel ~profile baseline
            ~args:w.Workload.train_args
        in
        let oi = run ~reference:true in
        check_parity
          (Printf.sprintf "fuel %Ld profile %b" fuel profile)
          oi (run ~reference:false);
        match oi with
        | Sim.Faulted { fault_msg = "fuel exhausted"; partial } ->
            Alcotest.(check int64)
              "fault at exactly fuel+1 retired" (Int64.add fuel 1L)
              partial.Sim.instructions
        | _ -> Alcotest.failf "fuel %Ld: expected fuel exhaustion" fuel
      done)
    [ false; true ]

(* Every fuel limit from 0 to just past a whole small program's need,
   so the fault lands on every retired instruction: the first of a run,
   mid-run, a run's closing branch, a call, a return and the libc
   print loop.  Unprofiled and sampled at a small period, so samples
   fall inside nearly every run.  Below the program's need the fault
   comes while retiring instruction fuel+1; at or above it the run
   finishes.  The sampled sweep uses the shortest period the simulator
   accepts (see the next test). *)
let fuel_sweep_src =
  {|
int scale(int x) { return x * 3 + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 20; i = i + 1) {
    if (i & 1) s = s + scale(i); else s = s - i;
    if (s > 20) s = s - 7;
  }
  print_int(s);
  return s & 127;
}
|}

let test_fuel_sweep_whole_program () =
  let image =
    Driver.link_baseline (Driver.compile ~name:"fuel-sweep" fuel_sweep_src)
  in
  let full =
    result_of "full run" (Sim.Reference.run_outcome image ~args:[])
  in
  let need = full.Sim.instructions in
  Alcotest.(check bool)
    (Printf.sprintf "small program (%Ld instructions)" need)
    true
    (need > 300L && need <= 3000L);
  List.iter
    (fun sample_period ->
      for k = 0 to Int64.to_int need + 2 do
        let fuel = Int64.of_int k in
        let run ~reference =
          run_outcome ~reference ~fuel ?sample_period image ~args:[]
        in
        let oi = run ~reference:true in
        let what =
          Printf.sprintf "fuel %d sampled %b" k (Option.is_some sample_period)
        in
        check_parity what oi (run ~reference:false);
        match oi with
        | Sim.Faulted { fault_msg = "fuel exhausted"; partial }
          when Int64.compare fuel need < 0 ->
            Alcotest.(check int64)
              (what ^ ": fault at exactly fuel+1 retired")
              (Int64.add fuel 1L) partial.Sim.instructions
        | Sim.Finished r when Int64.compare fuel need >= 0 ->
            Alcotest.(check int64) (what ^ ": full run") need
              r.Sim.instructions
        | _ -> Alcotest.failf "%s: unexpected outcome" what
      done)
    [ None; Some 11 ]

(* Each sample charges [Timing.default.sample_cost] cycles, and those
   cycles count toward the next sample: at a period no longer than the
   cost every instruction takes a sample and, below it, the number of
   samples due grows geometrically until the cycle count is garbage.
   Both engines refuse such periods up front; the shortest accepted one
   runs. *)
let test_short_sample_period_rejected () =
  let image =
    Driver.link_baseline (Driver.compile ~name:"fuel-sweep" fuel_sweep_src)
  in
  let shortest = int_of_float Timing.default.Timing.sample_cost + 1 in
  List.iter
    (fun reference ->
      List.iter
        (fun p ->
          match run_outcome ~reference ~sample_period:p image ~args:[] with
          | exception Invalid_argument _ -> ()
          | _ ->
              Alcotest.failf "period %d accepted (reference %b)" p reference)
        [ 1; 7; shortest - 1 ];
      let r =
        result_of "shortest period"
          (run_outcome ~reference ~sample_period:shortest image ~args:[])
      in
      (* Sampling multiplies the cycles per instruction by about
         period / (period - sample_cost), 11 here. *)
      Alcotest.(check bool)
        (Printf.sprintf "bounded cycles (%g for %Ld instructions)"
           r.Sim.cycles r.Sim.instructions)
        true
        (r.Sim.cycles < 100.0 *. Int64.to_float r.Sim.instructions))
    [ true; false ]

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
      check_parity
        (Printf.sprintf "run_at offset %d" start_offset)
        (run ~reference:true) (run ~reference:false))
    offsets

(* Entry at every offset of one 128-byte window: each decodable offset,
   including those inside instructions, and every undecodable one. *)
let test_run_at_window_parity () =
  let w = Workloads.find "429.mcf" in
  let _, baseline = prepared w in
  let lo = String.length baseline.Link.text / 2 in
  for start_offset = lo to lo + 127 do
    let run ~reference =
      run_at_outcome ~reference ~fuel:5_000L
        ~stack_image:[ 0x20l; 0x40l; 0x60l ] baseline ~start_offset
    in
    check_parity
      (Printf.sprintf "run_at offset %d" start_offset)
      (run ~reference:true) (run ~reference:false)
  done

(* A cold cache whose first entries are gadget-style: an image no other
   test builds, entered at every offset of a 128-byte window before any
   normal run, then run from its entry stub, then entered over the
   window again.  Whatever the window's misaligned entries leave in the
   cache must not change the normal run, and the normal run's entries
   must not change the window's outcomes. *)
let test_cold_cache_entry_order () =
  let w = Workloads.find "429.mcf" in
  let c, _ = prepared w in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let config = List.assoc "p0-30" Config.paper_configs in
  let image, _ = Driver.diversify_linked c ~config ~profile ~version:977 in
  let lo = String.length image.Link.text / 3 in
  let window pass =
    for start_offset = lo to lo + 127 do
      (* The engine under test first, so it meets each entry cold. *)
      let run ~reference =
        run_at_outcome ~reference ~fuel:5_000L
          ~stack_image:[ 0x20l; 0x40l; 0x60l ] image ~start_offset
      in
      let ob = run ~reference:false in
      check_parity
        (Printf.sprintf "%s: run_at offset %d" pass start_offset)
        (run ~reference:true) ob
    done
  in
  window "cold window";
  let run ~reference =
    run_outcome ~reference image ~args:w.Workload.train_args
  in
  let ob = run ~reference:false in
  check_parity "full run after window" (run ~reference:true) ob;
  window "warm window"

(* Hooked and plain runs take turns on one cache: profile, plain,
   sampled, plain, profile.  Each must equal the oracle's, whatever the
   runs before it built. *)
let test_hooks_interleaved () =
  let w = Workloads.find "429.mcf" in
  let c, _ = prepared w in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let config = List.assoc "p0-30" Config.paper_configs in
  let image, _ = Driver.diversify_linked c ~config ~profile ~version:978 in
  List.iteri
    (fun k (label, prof, period) ->
      let run ~reference =
        run_outcome ~reference ~profile:prof ?sample_period:period image
          ~args:w.Workload.train_args
      in
      let ob = run ~reference:false in
      check_parity
        (Printf.sprintf "run %d (%s)" k label)
        (run ~reference:true) ob)
    [
      ("profile", true, None);
      ("plain", false, None);
      ("sampled", false, Some sample_period);
      ("plain", false, None);
      ("profile", true, None);
    ]

(* ---------------- the parity rule itself ---------------- *)

(* Oracle.engine_mismatch on a real run with both profiles: perturbing
   any one field of the tuple is reported under that field's name, and
   equal outcomes (the same run, or a second run of the same image)
   agree. *)
let test_parity_rule_fields () =
  let image =
    Driver.link_baseline (Driver.compile ~name:"fuel-sweep" fuel_sweep_src)
  in
  let run () = Sim.run ~profile:true ~sample_period:11 image ~args:[] in
  let r = run () in
  let ep = Option.get r.Sim.exec_profile in
  let sp = Option.get r.Sim.sample_profile in
  let bump a =
    let a = Array.copy a in
    a.(0) <- Int64.succ a.(0);
    a
  in
  let fin r = Sim.Finished r in
  let fault ?(msg = "fuel exhausted") partial =
    Sim.Faulted { fault_msg = msg; partial }
  in
  let exec e = fin { r with Sim.exec_profile = Some e } in
  let sample s = fin { r with Sim.sample_profile = Some s } in
  let agree what a b =
    Alcotest.(check (option string)) what None (Oracle.engine_mismatch a b)
  in
  agree "same run" (fin r) (fin r);
  agree "second run" (fin r) (fin (run ()));
  agree "same fault" (fault r) (fault (run ()));
  List.iter
    (fun (field, a, b) ->
      match Oracle.engine_mismatch a b with
      | None -> Alcotest.failf "%s: perturbation not reported" field
      | Some m ->
          if not (String.starts_with ~prefix:(field ^ " ") (m ^ " ")) then
            Alcotest.failf "%s: reported as %S" field m)
    [
      ("status", fin r, fin { r with Sim.status = Int32.succ r.Sim.status });
      ("output", fin r, fin { r with Sim.output = r.Sim.output ^ "!" });
      ( "instructions",
        fin r,
        fin { r with Sim.instructions = Int64.succ r.Sim.instructions } );
      ( "nops_retired",
        fin r,
        fin { r with Sim.nops_retired = Int64.succ r.Sim.nops_retired } );
      ( "icache_misses",
        fin r,
        fin { r with Sim.icache_misses = Int64.succ r.Sim.icache_misses } );
      ("cycles", fin r, fin { r with Sim.cycles = Float.succ r.Sim.cycles });
      ("exec_profile presence", fin r, fin { r with Sim.exec_profile = None });
      ( "exec_profile.insn_counts",
        fin r,
        exec { ep with Sim.insn_counts = bump ep.Sim.insn_counts } );
      ( "exec_profile.nop_counts",
        fin r,
        exec { ep with Sim.nop_counts = bump ep.Sim.nop_counts } );
      ( "exec_profile.cycle_counts",
        fin r,
        exec
          {
            ep with
            Sim.cycle_counts =
              Array.mapi
                (fun i c -> if i = 0 then Float.succ c else c)
                ep.Sim.cycle_counts;
          } );
      ( "sample_profile presence",
        fin r,
        fin { r with Sim.sample_profile = None } );
      ( "sample_profile.period",
        fin r,
        sample { sp with Sim.period = Float.succ sp.Sim.period } );
      ( "sample_profile.sample_counts",
        fin r,
        sample { sp with Sim.sample_counts = bump sp.Sim.sample_counts } );
      ( "sample_profile.samples_taken",
        fin r,
        sample { sp with Sim.samples_taken = Int64.succ sp.Sim.samples_taken }
      );
      ( "sample_profile.sample_overhead_cycles",
        fin r,
        sample
          {
            sp with
            Sim.sample_overhead_cycles =
              Float.succ sp.Sim.sample_overhead_cycles;
          } );
      ("fault_msg", fault r, fault ~msg:"division error" r);
      ( "partial cycles",
        fault r,
        fault { r with Sim.cycles = Float.succ r.Sim.cycles } );
      ("outcome", fin r, fault r);
      ("outcome", fault r, fin r);
    ]

(* ---------------- call r/m reads its target first ---------------- *)

(* A bare image: [text] at the text base, entered through [run_at]. *)
let bare_image text =
  {
    Link.text;
    text_base = Link.text_base;
    symbols = [];
    entry = 0;
    user_start = 0;
    block_offsets = [];
    globals = [];
    data_init = [];
    main_arity = 0;
  }

(* x86 reads an indirect call's target before it pushes the return
   address (SDM: tempEIP <- DEST; Push(EIP)).  [call [esp]] must jump to
   the address the stack held on entry — here the [mov eax,7; hlt] at
   offset 4 — not to the return address the push just stored there,
   whose [hlt] would stop with status 0 after two instructions. *)
let test_call_rm_target_first () =
  let text_va off = Int32.add Link.text_base (Int32.of_int off) in
  let both image ~stack_image =
    let run ~reference =
      run_at_outcome ~reference ~fuel:100L ~stack_image image ~start_offset:0
    in
    let oi = run ~reference:true in
    check_parity "engines agree" oi (run ~reference:false);
    oi
  in
  (* call [esp] | hlt | mov eax,7 | hlt *)
  let image = bare_image "\xFF\x14\x24\xF4\xB8\x07\x00\x00\x00\xF4" in
  let r = result_of "call [esp]" (both image ~stack_image:[ text_va 4 ]) in
  Alcotest.(check int32) "call [esp] status" 7l r.Sim.status;
  Alcotest.(check int64) "call [esp] instructions" 3L r.Sim.instructions;
  (* call esp: the target is ESP before the push, a stack address, so
     the transfer leaves the text naming that address. *)
  let esp = Int32.sub Link.stack_top 16l in
  match both (bare_image "\xFF\xD4\xF4") ~stack_image:[] with
  | Sim.Faulted { fault_msg; partial } ->
      Alcotest.(check string)
        "call esp fault"
        (Printf.sprintf "control transfer outside text: 0x%lx" esp)
        fault_msg;
      Alcotest.(check int64) "call esp retired" 1L partial.Sim.instructions
  | Sim.Finished _ -> Alcotest.fail "call esp: expected a fault"

(* ---------------- a run starts on zeroed memory ---------------- *)

(* The block engine hands one data space from run to run and zeroes
   only the pages the last run wrote.  A writer stores to the first
   data page, a far data page and deep stack with its own code, and to
   two more pages before it starts (its data image and its stack
   image); a reader that loads all five addresses before writing any
   must see 0 on both engines, as a fresh space would give it. *)
let test_memory_zeroed_between_runs () =
  let first = Link.data_base
  and far = Int32.add Link.data_base 0x200000l
  and deep = Int32.sub Link.stack_top 0x100000l
  and init = Int32.add Link.data_base 0x100000l
  and slot = Int32.sub Link.stack_top 20l in
  let load_all =
    Insn.Mov_r_rm (Reg.EAX, Insn.Mem (Insn.mem_abs first))
    :: List.map
         (fun a -> Insn.Alu_r_rm (Insn.Or, Reg.EAX, Insn.Mem (Insn.mem_abs a)))
         [ far; deep; init; slot ]
    @ [ Insn.Hlt ]
  in
  let store a v = Insn.Mov_rm_imm (Insn.Mem (Insn.mem_abs a), v) in
  let writer =
    {
      (bare_image
         (Encode.program ([ store first 1l; store far 2l; store deep 4l ] @ load_all)))
      with
      Link.data_init = [ (init, [| 8l |]) ];
    }
  and reader = bare_image (Encode.program load_all) in
  let status what o = (result_of what o).Sim.status in
  for round = 1 to 2 do
    let wrote =
      Sim.run_at_outcome ~fuel:100L ~stack_image:[ 16l ] writer ~start_offset:0
    in
    Alcotest.(check int32) "the writer reads its own stores" 31l
      (status "writer" wrote);
    let run ~reference = run_at_outcome ~reference ~fuel:100L reader ~start_offset:0 in
    let oi = run ~reference:true and ob = run ~reference:false in
    check_parity (Printf.sprintf "reader, round %d" round) oi ob;
    Alcotest.(check int32)
      (Printf.sprintf "round %d: the reader sees zeroed memory" round)
      0l (status "reader" ob)
  done

(* ---------------- memory-operand inline shapes fault alike --------- *)

(* The inline shapes of the step builder with a memory operand, each
   entered from [main] of a bare image ([mov ebx, addr; shape; hlt]) at
   an out-of-bounds and at an unaligned address, with the profile hook
   and sampling on and with every hook off: the fault message and the
   partial tuple must match the oracle's. *)
let test_mem_shape_faults () =
  let m = Insn.mem_base ~disp:4l Reg.EBX in
  let shapes =
    [
      ("mov r,[b+d]", Insn.Mov_r_rm (Reg.EAX, Insn.Mem m));
      ("mov [b+d],r", Insn.Mov_rm_r (Insn.Mem m, Reg.EAX));
      ("add r,[b+d]", Insn.Alu_r_rm (Insn.Add, Reg.EAX, Insn.Mem m));
      ("cmp [b+d],imm", Insn.Alu_rm_imm (Insn.Cmp, Insn.Mem m, 7l));
    ]
  in
  List.iter
    (fun (name, shape) ->
      List.iter
        (fun addr ->
          let set_ebx = Insn.Mov_r_imm (Reg.EBX, addr) in
          let text = Encode.program [ set_ebx; shape; Insn.Hlt ] in
          let image =
            {
              (bare_image text) with
              Link.globals = [ (Libc.argv_symbol, Link.data_base) ];
            }
          in
          (match Decode.insn ~pos:(Encode.length set_ebx) text with
          | Some (i, _) when Insn.equal i shape -> ()
          | _ -> Alcotest.failf "%s does not decode to itself" name);
          List.iter
            (fun (hooks, profile, sample_period) ->
              let what = Printf.sprintf "%s at 0x%lx, %s" name addr hooks in
              let run ~reference =
                run_outcome ~reference ~profile ?sample_period image ~args:[]
              in
              let oi = run ~reference:true in
              check_parity what oi (run ~reference:false);
              match oi with
              | Sim.Faulted { partial; _ } ->
                  Alcotest.(check int64) (what ^ " retired") 2L
                    partial.Sim.instructions
              | Sim.Finished _ -> Alcotest.failf "%s: expected a fault" what)
            [
              ("hooks on", true, Some sample_period); ("hooks off", false, None);
            ])
        [ 0x10l; Int32.add Link.data_base 2l ])
    shapes

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
  check_parity "block re-run" (Sim.Finished (run ())) (Sim.Finished (run ()))

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
    List.filteri (fun i _ -> i >= h0) (overheads ())
    |> List.map Int64.bits_of_float )

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
        Alcotest.test_case "corpus trap parity, profile off" `Quick
          test_corpus_trap_parity_unprofiled;
        Alcotest.test_case "corpus trap parity, sampled" `Quick
          test_corpus_trap_parity_sampled;
        Alcotest.test_case "fuel exhaustion parity" `Quick
          test_fuel_exhaustion_parity;
        Alcotest.test_case "fuel sweep parity" `Quick
          test_fuel_sweep_parity;
        Alcotest.test_case "fuel sweep, whole program" `Quick
          test_fuel_sweep_whole_program;
        Alcotest.test_case "short sample period rejected" `Quick
          test_short_sample_period_rejected;
        Alcotest.test_case "run_at parity" `Quick test_run_at_parity;
        Alcotest.test_case "run_at window parity" `Quick
          test_run_at_window_parity;
        Alcotest.test_case "cold cache, entry order" `Quick
          test_cold_cache_entry_order;
        Alcotest.test_case "hooks interleaved on one cache" `Quick
          test_hooks_interleaved;
        Alcotest.test_case "each run starts on zeroed memory" `Quick
          test_memory_zeroed_between_runs;
        Alcotest.test_case "memory-operand shapes fault alike" `Quick
          test_mem_shape_faults;
        Alcotest.test_case "call r/m reads its target first" `Quick
          test_call_rm_target_first;
        Alcotest.test_case "decode memo shared" `Quick
          test_decode_memo_shared;
        Alcotest.test_case "block re-run deterministic" `Quick
          test_block_rerun_deterministic;
        Alcotest.test_case "sim metrics parity" `Quick test_metrics_parity;
        Alcotest.test_case "parity rule names each field" `Quick
          test_parity_rule_fields;
      ] );
    ( "sim_engine.grid",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.Workload.name `Slow (test_workload_grid w))
        Workloads.all );
  ]
