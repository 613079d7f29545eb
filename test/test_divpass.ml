(* The diversity-pass framework.

   The load-bearing contract is refactor safety: with only the [nop]
   pass enabled the framework must reproduce the pre-framework
   diversifier bit for bit (pinned by the committed whole-image
   fixture, golden_nop_digests.json, which runtest regenerates and
   diffs), and enabling any other pass must not perturb the NOP pass's
   RNG stream.  On top of that: semantics for every transform, the
   budget planner's under-budget guarantee (planned and measured),
   per-pass unit tests, and the config-spec grammar round trip. *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ok_spec spec =
  match Config.of_spec spec with
  | Ok c -> c
  | Error e -> Alcotest.fail (spec ^ ": " ^ e)

let workload name =
  List.find (fun (w : Workload.t) -> w.Workload.name = name) Workloads.all

(* ---- RNG stream isolation: toggling a pass never perturbs nop ---- *)

let test_rng_isolation () =
  let variants =
    [ "+sched"; "+regperm"; "+subst"; "+sched+regperm+subst" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.name w.source in
      let profile = Driver.train_cached c ~args:w.train_args in
      for version = 0 to 2 do
        let _, ref_report =
          Driver.diversify_linked c ~config:(ok_spec "p0-30") ~profile ~version
        in
        let ref_nop = Divpass.nop_stats ref_report in
        List.iter
          (fun suffix ->
            let config = ok_spec ("p0-30" ^ suffix) in
            let _, report =
              Driver.diversify_linked c ~config ~profile ~version
            in
            let nop = Divpass.nop_stats report in
            let msg what =
              Printf.sprintf "%s%s v%d nop %s" w.name suffix version what
            in
            Alcotest.(check int) (msg "seen") ref_nop.Divpass.seen nop.Divpass.seen;
            Alcotest.(check int)
              (msg "inserted") ref_nop.Divpass.changed nop.Divpass.changed;
            Alcotest.(check int)
              (msg "bytes") ref_nop.Divpass.bytes_added nop.Divpass.bytes_added)
          variants
      done)
    Workloads.all

(* ---- semantics per transform ---- *)

let semantics_specs =
  [
    (* each transform alone on top of the paper's best config *)
    ("p0-30+sched", Some "sched");
    ("p0-30+regperm", Some "regperm");
    ("p0-30+subst", Some "subst");
    (* the full portfolio, and the budgeted portfolio *)
    ("p0-30+sched+regperm+subst", None);
    ("p50+sched+regperm+subst+b2", None);
    (* each transform with NOP insertion off entirely *)
    ("p30+sched+nonop", Some "sched");
    ("p30+regperm+nonop", Some "regperm");
    ("p30+subst+nonop", Some "subst");
  ]

let check_semantics wname () =
  let w = workload wname in
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let base =
    Driver.run_image (Driver.link_baseline_cached c) ~args:w.Workload.train_args
  in
  List.iter
    (fun (spec, must_fire) ->
      let config = ok_spec spec in
      let image, report =
        Driver.diversify_linked c ~config ~profile ~version:0
      in
      (* the targeted transform really did something on this workload *)
      (match must_fire with
      | None -> ()
      | Some pname ->
          let s = List.find (fun (s : Divpass.stats) -> s.pass = pname) report in
          Alcotest.(check bool) (spec ^ " " ^ pname ^ " fired") true
            (s.Divpass.changed > 0));
      (* with +nonop the nop pass must not run at all *)
      if not config.Config.passes.Config.nop then
        Alcotest.(check int)
          (spec ^ " no nop entry") 0
          (Divpass.nop_stats report).Divpass.changed;
      let r = Driver.run_image image ~args:w.Workload.train_args in
      Alcotest.(check string) (spec ^ " output") base.Sim.output r.Sim.output;
      Alcotest.(check int32) (spec ^ " status") base.Sim.status r.Sim.status)
    semantics_specs

(* ---- budgeted mode: planned and measured overhead under budget ---- *)

let check_budget wname () =
  let w = workload wname in
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let base =
    Driver.run_image (Driver.link_baseline_cached c) ~args:w.Workload.train_args
  in
  List.iter
    (fun spec ->
      let config = ok_spec spec in
      let declared = Option.get config.Config.budget_pct in
      let plan = Budget.plan ~config ~profile c.Driver.asm in
      let est, budget_cycles, planned = Budget.summary plan in
      Alcotest.(check bool) (spec ^ " estimate sane") true (est > 0.0);
      Alcotest.(check bool)
        (spec ^ " planned <= budget") true
        (planned <= budget_cycles +. 1e-6);
      for version = 0 to 2 do
        let image, _ = Driver.diversify_linked c ~config ~profile ~version in
        let r = Driver.run_image image ~args:w.Workload.train_args in
        Alcotest.(check string)
          (Printf.sprintf "%s v%d output" spec version)
          base.Sim.output r.Sim.output;
        let overhead =
          100.0 *. ((r.Sim.cycles /. base.Sim.cycles) -. 1.0)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s v%d measured %.3f%% under %.1f%%" spec version
             overhead declared)
          true (overhead < declared)
      done)
    [ "p50+b2"; "p0-30+b1" ]

let test_budget_planner_unit () =
  let mk_block label n =
    Asm.Label label
    :: List.init n (fun i -> Asm.Ins (Insn.Mov_r_imm (Reg.EAX, Int32.of_int i)))
  in
  let f =
    { Asm.name = "f"; items = mk_block 0 10 @ mk_block 1 10 @ [ Asm.Ins Insn.Ret ] }
  in
  let counts = Hashtbl.create 4 in
  Hashtbl.replace counts ("f", 0) 1000L;
  Hashtbl.replace counts ("f", 1) 1L;
  let profile = Profile.of_block_counts counts in
  let config = Config.with_budget (Config.uniform 0.5) 1.0 in
  let plan = Budget.plan ~config ~profile [ f ] in
  let est, budget_cycles, planned = Budget.summary plan in
  (* 1000 x 10 movs + 1 x (10 movs + ret) under the additive model *)
  Alcotest.(check bool) "estimate covers the hot block" true (est >= 10000.0);
  Alcotest.(check bool) "planned <= budget" true
    (planned <= budget_cycles +. 1e-9);
  Alcotest.(check bool) "budget saturated" true
    (planned >= budget_cycles -. 1e-9);
  (* cold block keeps the strategy's full intensity, the hot block
     absorbs the cut, unknown blocks (the bb_shift sled) get the cap *)
  Alcotest.(check (float 1e-9)) "cold block at cap" 0.5
    (Budget.prob plan "f" (Some 1));
  Alcotest.(check bool) "hot block reduced" true
    (Budget.prob plan "f" (Some 0) < 0.1);
  Alcotest.(check (float 1e-9)) "unknown block at cap" 0.5
    (Budget.prob plan "f" None)

(* ---- scheduling randomization unit ---- *)

let test_sched_unit () =
  let open Insn in
  let mov r v = Asm.Ins (Mov_r_imm (r, v)) in
  let add d s = Asm.Ins (Alu_rm_r (Add, Reg d, s)) in
  let f =
    {
      Asm.name = "f";
      items =
        [
          Asm.Label 0;
          mov Reg.EBX 1l;
          mov Reg.ESI 2l;
          mov Reg.EDI 3l;
          add Reg.EBX Reg.ESI;
          add Reg.EDI Reg.EBX;
          Asm.Ins Ret;
        ];
    }
  in
  let insns g = Asm.insns g in
  let pos g i =
    match List.mapi (fun k x -> (x, k)) (insns g) |> List.assoc_opt i with
    | Some k -> k
    | None -> Alcotest.fail "scheduled stream lost an instruction"
  in
  let orders = Hashtbl.create 8 in
  for seed = 0 to 31 do
    let rng = Rng.of_labels (Int64.of_int seed) [ "sched-unit" ] in
    let g, seen, _moved = Sched.run ~rng f in
    Alcotest.(check int) "same size" (Asm.func_size f) (Asm.func_size g);
    Alcotest.(check bool) "same multiset" true
      (List.sort compare (insns f) = List.sort compare (insns g));
    Alcotest.(check bool) "counted the run" true (seen >= 5);
    (* dependences hold in every schedule *)
    Alcotest.(check bool) "RAW ebx" true
      (pos g (Mov_r_imm (Reg.EBX, 1l)) < pos g (Alu_rm_r (Add, Reg Reg.EBX, Reg.ESI)));
    Alcotest.(check bool) "RAW esi" true
      (pos g (Mov_r_imm (Reg.ESI, 2l)) < pos g (Alu_rm_r (Add, Reg Reg.EBX, Reg.ESI)));
    Alcotest.(check bool) "chained RAW" true
      (pos g (Alu_rm_r (Add, Reg Reg.EBX, Reg.ESI))
      < pos g (Alu_rm_r (Add, Reg Reg.EDI, Reg.EBX)));
    Alcotest.(check bool) "ret is a barrier" true
      (pos g Ret = List.length (insns g) - 1);
    Hashtbl.replace orders (insns g) ()
  done;
  Alcotest.(check bool) "schedules actually vary" true
    (Hashtbl.length orders > 1)

let test_sched_stores_ordered () =
  let open Insn in
  let store v = Asm.Ins (Mov_rm_imm (Mem (mem_abs 4096l), v)) in
  let f =
    {
      Asm.name = "f";
      items = [ Asm.Label 0; store 1l; store 2l; store 3l; Asm.Ins Ret ];
    }
  in
  for seed = 0 to 15 do
    let rng = Rng.of_labels (Int64.of_int seed) [ "sched-stores" ] in
    let g, _, moved = Sched.run ~rng f in
    Alcotest.(check bool) "stores never reorder" true
      (Asm.insns g = Asm.insns f);
    Alcotest.(check int) "nothing moved" 0 moved
  done

(* ---- register permutation unit ---- *)

let test_regperm_unit () =
  let open Insn in
  let f =
    {
      Asm.name = "f";
      items =
        [
          Asm.Label 0;
          Asm.Ins (Push_r Reg.EBX);
          Asm.Ins (Mov_r_imm (Reg.EBX, 7l));
          Asm.Ins (Mov_r_imm (Reg.EAX, 9l));
          Asm.Ins (Alu_rm_r (Add, Reg Reg.EBX, Reg.ESI));
          Asm.Ins (Mov_rm_r (Mem (Insn.mem_base Reg.EBP ~disp:8l), Reg.EDI));
          Asm.Ins (Pop_r Reg.EBX);
          Asm.Ins Ret;
        ];
    }
  in
  let changed_once = ref false in
  for seed = 0 to 15 do
    let rng = Rng.of_labels (Int64.of_int seed) [ "regperm-unit" ] in
    let g, seen, changed = Regperm.run ~rng f in
    Alcotest.(check int) "same size" (Asm.func_size f) (Asm.func_size g);
    Alcotest.(check int) "scanned every insn" 7 seen;
    (* determinism: the same stream reproduces the same function *)
    let rng' = Rng.of_labels (Int64.of_int seed) [ "regperm-unit" ] in
    let g', _, _ = Regperm.run ~rng:rng' f in
    Alcotest.(check bool) "deterministic" true (g = g');
    (* non-pool registers and frame references never change *)
    Alcotest.(check bool) "eax untouched" true
      (List.mem (Mov_r_imm (Reg.EAX, 9l)) (Asm.insns g));
    List.iter
      (fun i ->
        match i with
        | Mov_rm_r (Mem m, _) ->
            Alcotest.(check bool) "ebp base kept" true (m.base = Some Reg.EBP)
        | _ -> ())
      (Asm.insns g);
    (* push/pop sites are renamed consistently with the body *)
    (match Asm.insns g with
    | Push_r r :: Mov_r_imm (r', 7l) :: _ ->
        Alcotest.(check bool) "prologue consistent" true (r = r');
        Alcotest.(check bool) "stays in pool" true (List.mem r Regalloc.pool)
    | _ -> Alcotest.fail "unexpected stream shape");
    if changed > 0 then begin
      changed_once := true;
      Alcotest.(check bool) "bytes differ" true
        ((Asm.assemble g).Asm.bytes <> (Asm.assemble f).Asm.bytes)
    end
  done;
  Alcotest.(check bool) "some seed permutes" true !changed_once

(* ---- instruction substitution unit ---- *)

let test_subst_rules () =
  let open Insn in
  let alts = Subst.alternatives in
  Alcotest.(check bool) "mov direction flip" true
    (alts ~flags_dead:false (Mov_rm_r (Reg Reg.EAX, Reg.ECX))
    = [ Mov_r_rm (Reg.EAX, Reg Reg.ECX) ]);
  Alcotest.(check bool) "mov flip and lea" true
    (alts ~flags_dead:false (Mov_r_rm (Reg.EAX, Reg Reg.ECX))
    = [ Mov_rm_r (Reg Reg.EAX, Reg.ECX); Lea (Reg.EAX, mem_base Reg.ECX) ]);
  Alcotest.(check bool) "mov imm to lea" true
    (List.mem (Lea (Reg.EDX, mem_abs 5l))
       (alts ~flags_dead:false (Mov_r_imm (Reg.EDX, 5l))));
  Alcotest.(check bool) "cmp flips too" true
    (alts ~flags_dead:false (Alu_rm_r (Cmp, Reg Reg.EAX, Reg.ECX))
    = [ Alu_r_rm (Cmp, Reg.EAX, Reg Reg.ECX) ]);
  (* flags-dead tier is gated *)
  Alcotest.(check bool) "no xor while flags live" true
    (not
       (List.mem
          (Alu_rm_r (Xor, Reg Reg.EAX, Reg.EAX))
          (alts ~flags_dead:false (Mov_r_imm (Reg.EAX, 0l)))));
  Alcotest.(check bool) "xor when flags dead" true
    (List.mem
       (Alu_rm_r (Xor, Reg Reg.EAX, Reg.EAX))
       (alts ~flags_dead:true (Mov_r_imm (Reg.EAX, 0l))));
  Alcotest.(check bool) "add 1 to inc" true
    (List.mem (Inc_r Reg.ECX)
       (alts ~flags_dead:true (Alu_rm_imm (Add, Reg Reg.ECX, 1l))));
  Alcotest.(check bool) "inc to add 1" true
    (List.mem
       (Alu_rm_imm (Add, Reg Reg.ECX, 1l))
       (alts ~flags_dead:true (Inc_r Reg.ECX)));
  (* NOP candidates are never rewritten, and no rewrite produces one *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "candidates untouched" true
        (alts ~flags_dead:true c = []))
    Nops.with_xchg;
  List.iter
    (fun i ->
      List.iter
        (fun a ->
          Alcotest.(check bool) "alternative is distinct" true (a <> i);
          Alcotest.(check bool) "alternative is not a nop" true
            (not (Nops.is_candidate a)))
        (alts ~flags_dead:true i))
    [
      Mov_rm_r (Reg Reg.EAX, Reg.ECX);
      Mov_r_rm (Reg.EAX, Reg Reg.ECX);
      Mov_r_imm (Reg.EAX, 0l);
      Alu_rm_r (Sub, Reg Reg.EBX, Reg.EDI);
      Alu_rm_imm (Sub, Reg Reg.ESI, 1l);
      Dec_r Reg.EDX;
    ]

(* ---- the config-spec grammar ---- *)

let test_spec_errors () =
  (match Config.of_spec "zzz" with
  | Error e ->
      Alcotest.(check bool) "lists the grammar" true
        (contains_sub e "p<LO>-<HI>")
  | Ok _ -> Alcotest.fail "nonsense spec accepted");
  (match Config.of_spec "p0-30+bogus" with
  | Error e ->
      Alcotest.(check bool) "names the suffix" true (contains_sub e "bogus")
  | Ok _ -> Alcotest.fail "bad suffix accepted");
  match Config.of_spec "p0-30+b-2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative budget accepted"

let arb_config =
  let open QCheck.Gen in
  let pct_float = map (fun k -> float_of_int k /. 100.0) (int_bound 100) in
  let strategy =
    frequency
      [
        (1, return Config.Off);
        (3, map (fun p -> Config.Uniform p) pct_float);
        ( 6,
          map
            (fun (a, b, lin, fn) ->
              Config.Profiled
                {
                  pmin = Float.min a b;
                  pmax = Float.max a b;
                  shape = (if lin then Heuristic.Linear else Heuristic.Logarithmic);
                  scope = (if fn then `Function else `Program);
                })
            (quad pct_float pct_float bool bool) );
      ]
  in
  let passes =
    map
      (fun (nop, sched, regperm, subst) -> { Config.nop; sched; regperm; subst })
      (quad bool bool bool bool)
  in
  (* quarter-percent budgets: exactly representable, so the printed
     form must re-parse to the identical float *)
  let budget =
    frequency
      [
        (1, return None);
        (2, map (fun i -> Some (float_of_int (i + 1) /. 4.0)) (int_bound 39));
      ]
  in
  let gen =
    map
      (fun ((strategy, use_xchg, bb_shift), (passes, budget_pct)) ->
        {
          Config.strategy;
          use_xchg;
          bb_shift;
          seed = 0L;
          passes;
          budget_pct;
        })
      (pair (triple strategy bool bool) (pair passes budget))
  in
  QCheck.make ~print:(fun c -> Config.name c) gen

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"of_spec (name c) = c over the full grammar"
    ~count:2000 arb_config (fun c ->
      match Config.of_spec (Config.name c) with
      | Ok c' -> c = c'
      | Error e -> QCheck.Test.fail_reportf "%s: %s" (Config.name c) e)

let suite =
  [
    ( "divpass.identity",
      [
        Alcotest.test_case "pass toggles never perturb the nop stream" `Slow
          test_rng_isolation;
      ] );
    ( "divpass.semantics",
      [
        Alcotest.test_case "429.mcf portfolio semantics" `Slow
          (check_semantics "429.mcf");
        Alcotest.test_case "470.lbm portfolio semantics" `Slow
          (check_semantics "470.lbm");
      ] );
    ( "divpass.budget",
      [
        Alcotest.test_case "planner unit" `Quick test_budget_planner_unit;
        Alcotest.test_case "429.mcf under budget" `Slow
          (check_budget "429.mcf");
        Alcotest.test_case "470.lbm under budget" `Slow
          (check_budget "470.lbm");
      ] );
    ( "divpass.transforms",
      [
        Alcotest.test_case "sched legal and varied" `Quick test_sched_unit;
        Alcotest.test_case "sched keeps stores ordered" `Quick
          test_sched_stores_ordered;
        Alcotest.test_case "regperm consistent renaming" `Quick
          test_regperm_unit;
        Alcotest.test_case "subst rule table" `Quick test_subst_rules;
      ] );
    ( "divpass.grammar",
      [
        Alcotest.test_case "spec errors name the offender" `Quick
          test_spec_errors;
        QCheck_alcotest.to_alcotest prop_spec_roundtrip;
      ] );
  ]
