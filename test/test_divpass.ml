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

(* ---- the one-pass assembler and the nop stats, on every workload ---- *)

(* [Asm.assemble] against an independent account of the same function:
   the byte length is [func_size], the block offsets are the prefix sums
   of [item_size], every local branch decodes to a branch that lands on
   its label's offset, and every relocation field is four zero bytes. *)
let check_assembled what (f : Asm.func) =
  let a = Asm.assemble f in
  let msg m = Printf.sprintf "%s %s: %s" what (Asm.name f) m in
  Alcotest.(check int) (msg "length") (Asm.func_size f)
    (String.length a.Asm.bytes);
  let _, labels, branches =
    List.fold_left
      (fun (pos, labels, branches) item ->
        let labels =
          match item with Asm.Label l -> (l, pos) :: labels | _ -> labels
        in
        let branches =
          match item with
          | Asm.Jmp_sym _ | Asm.Jcc_sym _ -> (pos, item) :: branches
          | _ -> branches
        in
        (pos + Asm.item_size item, labels, branches))
      (0, [], []) (Asm.items f)
  in
  Alcotest.(check (list (pair int int)))
    (msg "label offsets") (List.rev labels) a.Asm.label_offsets;
  List.iter
    (fun (pos, item) ->
      let lands l d len =
        Alcotest.(check int)
          (msg (Printf.sprintf "branch at %d" pos))
          (List.assoc l labels)
          (pos + len + Int32.to_int d)
      in
      match (item, Decode.insn ~pos a.Asm.bytes) with
      | Asm.Jmp_sym l, Some (Insn.Jmp_rel d, 5) -> lands l d 5
      | Asm.Jcc_sym (c, l), Some (Insn.Jcc (c', d), 6) when c = c' ->
          lands l d 6
      | _ -> Alcotest.fail (msg (Printf.sprintf "no branch at %d" pos)))
    branches;
  List.iter
    (fun (Asm.Rel32 (o, _) | Asm.Abs32 (o, _)) ->
      Alcotest.(check string)
        (msg (Printf.sprintf "reloc field at %d" o))
        "\000\000\000\000" (String.sub a.Asm.bytes o 4))
    a.Asm.relocs

let count_items funcs =
  List.fold_left (fun n (f : Asm.func) -> n + List.length (Asm.items f)) 0 funcs

let total_size funcs =
  List.fold_left (fun n f -> n + Asm.func_size f) 0 funcs

(* Every function of every workload, undiversified and diversified under
   p0-30 (versions 0-2) and the full portfolio (version 0), built pass by
   pass as [Driver.diversify_linked] builds it.  Around the nop pass its
   stats are checked against the stream: one added item per NOP and
   [bytes_added] the growth in [func_size]. *)
let test_assemble_every_workload () =
  let specs = [ ("p0-30", [ 0; 1; 2 ]); ("p0-30+sched+regperm+subst", [ 0 ]) ] in
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.name w.source in
      let profile = Driver.train_cached c ~args:w.train_args in
      List.iter (check_assembled (w.name ^ " baseline")) c.Driver.asm;
      List.iter
        (fun (spec, versions) ->
          let config = ok_spec spec in
          List.iter
            (fun version ->
              let what = Printf.sprintf "%s %s v%d" w.name spec version in
              let ctx = { Divpass.prog = c.Driver.name; config; profile; version } in
              let run funcs (p : Divpass.pass) =
                if not (p.Divpass.enabled config.Config.passes) then funcs
                else
                  let out, s = p.Divpass.run ctx funcs in
                  if p.Divpass.pname = "nop" then begin
                    Alcotest.(check int) (what ^ " nops = added items")
                      (count_items out - count_items funcs) s.Divpass.changed;
                    Alcotest.(check int) (what ^ " bytes = size growth")
                      (total_size out - total_size funcs) s.Divpass.bytes_added
                  end;
                  out
              in
              List.iter (check_assembled what)
                (List.fold_left run c.Driver.asm Divpass.registry))
            versions)
        specs)
    Workloads.all

(* The reference assembler: every item encoded afresh from its
   instruction, local branches with their final displacement, and each
   reloc field zero. *)
let reference_assemble (f : Asm.func) =
  let size = function
    | Asm.Label _ -> 0
    | Asm.Ins { insn; _ } -> Encode.length insn
    | Asm.Jmp_sym _ -> Encode.length (Insn.Jmp_rel 0l)
    | Asm.Jcc_sym (c, _) -> Encode.length (Insn.Jcc (c, 0l))
    | Asm.Call_sym _ -> Encode.length (Insn.Call_rel 0l)
    | Asm.Mov_sym (r, _) -> Encode.length (Insn.Mov_r_imm (r, 0l))
  in
  let _, labels =
    List.fold_left
      (fun (pos, labels) item ->
        let labels =
          match item with Asm.Label l -> (l, pos) :: labels | _ -> labels
        in
        (pos + size item, labels))
      (0, []) (Asm.items f)
  in
  let rel l pos len = Int32.of_int (List.assoc l labels - (pos + len)) in
  let buf = Buffer.create 256 in
  let relocs = ref [] in
  List.iter
    (fun item ->
      let pos = Buffer.length buf in
      let code =
        match item with
        | Asm.Label _ -> ""
        | Asm.Ins { insn; _ } -> Encode.insn insn
        | Asm.Jmp_sym l -> Encode.insn (Insn.Jmp_rel (rel l pos 5))
        | Asm.Jcc_sym (c, l) -> Encode.insn (Insn.Jcc (c, rel l pos 6))
        | Asm.Call_sym sym ->
            relocs := Asm.Rel32 (pos + 1, sym) :: !relocs;
            Encode.insn (Insn.Call_rel 0l)
        | Asm.Mov_sym (r, sym) ->
            relocs := Asm.Abs32 (pos + 1, sym) :: !relocs;
            Encode.insn (Insn.Mov_r_imm (r, 0l))
      in
      Buffer.add_string buf code)
    (Asm.items f);
  {
    Asm.bytes = Buffer.contents buf;
    relocs = List.rev !relocs;
    label_offsets = List.rev labels;
  }

(* Every [Ins] item's carried bytes are the fresh encoding of its
   instruction, and [Asm.assemble] (a blit of those bytes) equals the
   reference assembler: for every workload, every fixture config and
   versions 0-2, before any pass and after each enabled one, so no pass
   can rewrite an instruction and keep its old bytes. *)
let check_carried what (f : Asm.func) =
  List.iter
    (function
      | Asm.Ins i ->
          if i.Asm.code <> Encode.insn i.Asm.insn then
            Alcotest.failf "%s %s: stale bytes for %s" what (Asm.name f)
              (Insn.to_string i.Asm.insn)
      | _ -> ())
    (Asm.items f);
  if Asm.assemble f <> reference_assemble f then
    Alcotest.failf "%s %s: assemble differs from a fresh encoding" what
      (Asm.name f)

let test_carried_bytes_fresh () =
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.name w.source in
      let profile = Driver.train_cached c ~args:w.train_args in
      List.iter (check_carried (w.name ^ " baseline")) c.Driver.asm;
      List.iter
        (fun (cname, config) ->
          for version = 0 to 2 do
            let ctx =
              { Divpass.prog = c.Driver.name; config; profile; version }
            in
            ignore
              (List.fold_left
                 (fun funcs (p : Divpass.pass) ->
                   if not (p.Divpass.enabled config.Config.passes) then funcs
                   else
                     let out, _ = p.Divpass.run ctx funcs in
                     List.iter
                       (check_carried
                          (Printf.sprintf "%s %s v%d after %s" w.name cname
                             version p.Divpass.pname))
                       out;
                     out)
                 c.Driver.asm Divpass.registry)
          done)
        Fixture_configs.all)
    Workloads.all

(* A diversified function is its base plus insertions, assembled by
   splicing the base's bytes; the same function as one flat item list is
   laid out from scratch.  The two agree — bytes, relocations and label
   offsets — on every fixture config, workload and version 0-24 (the
   golden fixture pins versions 0-2 only). *)
let flat f = Asm.func (Asm.name f) (Asm.items f)

let check_spliced what f =
  if Asm.assemble f <> Asm.assemble (flat f) then
    Alcotest.failf "%s %s: the splice differs from the item list's assembly"
      what (Asm.name f)

let test_splice_versions () =
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.name w.source in
      let profile = Driver.train_cached c ~args:w.train_args in
      List.iter
        (fun (cname, config) ->
          for version = 0 to 24 do
            let ctx = { Divpass.prog = c.Driver.name; config; profile; version } in
            List.iter
              (check_spliced (Printf.sprintf "%s %s v%d" w.name cname version))
              (fst (Divpass.run_all ctx c.Driver.asm))
          done)
        Fixture_configs.all)
    Workloads.all

(* Random insertion sets, on a function with a forward branch, a
   backward branch, relocations and a label at its end, on the runtime
   and on every workload function.  Positions may repeat, and one in
   four sets starts with an insertion before instruction 0. *)
let edges =
  Asm.func "edges"
    [
      Asm.Label 0;
      Asm.ins (Insn.Push_r Reg.EBP);
      Asm.Jcc_sym (Cond.E, 2);
      Asm.Label 1;
      Asm.ins (Insn.Inc_r Reg.EAX);
      Asm.Call_sym "callee";
      Asm.Jcc_sym (Cond.NE, 1);
      Asm.Mov_sym (Reg.EBX, "glob");
      Asm.Jmp_sym 2;
      Asm.ins Insn.Ret;
      Asm.Label 2;
    ]

let splice_pool =
  lazy
    (Array.of_list
       ((edges :: Libc.funcs)
       @ List.concat_map
           (fun (w : Workload.t) ->
             (Driver.compile_cached ~name:w.name w.source).Driver.asm)
           Workloads.all))

(* [f] plus one insertion per (position, candidate) pair, positions
   taken modulo the instruction count and sorted. *)
let spliced f inserts =
  let n = Array.length (Asm.layout f).Asm.offsets - 1 in
  let inserts =
    List.sort compare (List.map (fun (p, k) -> (p mod n, k)) inserts)
  in
  let nops = Nops.with_xchg in
  Asm.insert f
    (Array.of_list (List.map fst inserts))
    (Array.of_list
       (List.map (fun (_, k) -> Asm.ins nops.(k mod Array.length nops)) inserts))

let agrees g =
  let a = Asm.assemble g in
  a = Asm.assemble (flat g) && a = reference_assemble g

let test_splice_edges () =
  List.iter
    (fun (what, inserts) ->
      Alcotest.(check bool) what true (agrees (spliced edges inserts)))
    [
      ("before instruction 0", [ (0, 0) ]);
      ("between a branch and its target", [ (2, 1); (2, 2); (3, 3) ]);
      ("before the last instruction", [ (7, 4) ]);
      ("before every instruction", List.init 8 (fun j -> (j, j)));
    ]

let prop_splice =
  let open QCheck in
  let inserts = Gen.(list_size (int_bound 12) (pair nat nat)) in
  Test.make ~name:"random insertions splice as the item list assembles"
    ~count:1000
    (make
       ~print:Print.(pair int (list (pair int int)))
       Gen.(
         pair nat
           (frequency
              [ (1, map (fun l -> (0, 0) :: l) inserts); (3, inserts) ])))
    (fun (i, inserts) ->
      let pool = Lazy.force splice_pool in
      agrees (spliced pool.(i mod Array.length pool) inserts))

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
    :: List.init n (fun i -> Asm.ins (Insn.Mov_r_imm (Reg.EAX, Int32.of_int i)))
  in
  let f =
    Asm.func "f" (mk_block 0 10 @ mk_block 1 10 @ [ Asm.ins Insn.Ret ])
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
  let mov r v = Asm.ins (Mov_r_imm (r, v)) in
  let add d s = Asm.ins (Alu_rm_r (Add, Reg d, s)) in
  let f =
    Asm.func "f"
      [
        Asm.Label 0;
        mov Reg.EBX 1l;
        mov Reg.ESI 2l;
        mov Reg.EDI 3l;
        add Reg.EBX Reg.ESI;
        add Reg.EDI Reg.EBX;
        Asm.ins Ret;
      ]
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
  let store v = Asm.ins (Mov_rm_imm (Mem (mem_abs 4096l), v)) in
  let f =
    Asm.func "f"
      [ Asm.Label 0; store 1l; store 2l; store 3l; Asm.ins Ret ]
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
    Asm.func "f"
      [
        Asm.Label 0;
        Asm.ins (Push_r Reg.EBX);
        Asm.ins (Mov_r_imm (Reg.EBX, 7l));
        Asm.ins (Mov_r_imm (Reg.EAX, 9l));
        Asm.ins (Alu_rm_r (Add, Reg Reg.EBX, Reg.ESI));
        Asm.ins (Mov_rm_r (Mem (Insn.mem_base Reg.EBP ~disp:8l), Reg.EDI));
        Asm.ins (Pop_r Reg.EBX);
        Asm.ins Ret;
      ]
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
    Alcotest.(check bool) "deterministic" true (Asm.items g = Asm.items g');
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

(* Names print whole percents, so a config with any other probability
   would share its name, report key and RNG streams with another config
   (range:0.001:0.3 with p0-30; uniform:0.375 as p38, which parses back
   to 0.38).  Neither the grammar nor the constructors admit one.  The
   same holds for spellings of a percent or budget that name would not
   print (p050 is p50; +b0.00001 would be named p0-30+b0, which does not
   parse; +b1.23456 would be named +b1.2346, a different config).  Every
   spec in the table round-trips through its name, and is its name. *)
let test_spec_whole_percents () =
  List.iter
    (fun spec ->
      match Config.of_spec spec with
      | Error _ -> ()
      | Ok c -> Alcotest.failf "%s accepted as %s" spec (Config.name c))
    [
      "range:0.001:0.3"; "uniform:0.375"; "p0x1e"; "p3_0"; "p050"; "p+5";
      "p0-030"; "p1000"; "p0-30+b0.00001"; "p0-30+b0.00002";
      "p0-30+b1.23456"; "p0-30+binf"; "p0-30+bnan"; "p0-30+b1e0";
      "p0-30+b0x1"; "p0-30+b2.50"; "p0-30+b0";
    ];
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | c -> Alcotest.failf "%s accepted as %s" what (Config.name c)
  in
  rejects "uniform 0.375" (fun () -> Config.uniform 0.375);
  rejects "profiled 0.001..0.3" (fun () ->
      Config.profiled ~pmin:0.001 ~pmax:0.3 ());
  rejects "profiled 0..1.5" (fun () -> Config.profiled ~pmin:0.0 ~pmax:1.5 ());
  List.iter
    (fun b ->
      rejects (Printf.sprintf "budget %g" b) (fun () ->
          Config.with_budget Config.off b))
    [ 0.0; -2.0; Float.infinity; Float.nan; 0.00001; 1.23456 ];
  Alcotest.(check string) "4 decimals kept" "baseline+b1.2346"
    (Config.name (Config.with_budget Config.off 1.2346));
  Alcotest.(check bool) "off is the alias of baseline" true
    (Config.of_spec "off" = Config.of_spec "baseline");
  let table =
    [
      "baseline"; "p0"; "p38"; "p100"; "p50"; "p30"; "p25-50"; "p10-50";
      "p0-30"; "p0-30-lin"; "p0-30-fn"; "p25-50-lin-fn+xchg+shift";
      "p0-30+b1"; "p50+xchg+b2.5"; "p0-30+b0.0001"; "p0-30+b1.2346";
    ]
    @ List.map fst semantics_specs
  in
  List.iter
    (fun spec ->
      let c = ok_spec spec in
      Alcotest.(check string) (spec ^ ": name (of_spec s) = s") spec
        (Config.name c);
      Alcotest.(check bool)
        (spec ^ ": of_spec (name c) = Ok c")
        true
        (Config.of_spec (Config.name c) = Ok c))
    table

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
    ( "divpass.assemble",
      [
        Alcotest.test_case "every workload function, one pass" `Slow
          test_assemble_every_workload;
        Alcotest.test_case "carried bytes are fresh bytes" `Slow
          test_carried_bytes_fresh;
        Alcotest.test_case "splice = item-list assembly, versions 0-24" `Slow
          test_splice_versions;
        Alcotest.test_case "splice at the edges" `Quick test_splice_edges;
        QCheck_alcotest.to_alcotest prop_splice;
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
        Alcotest.test_case "whole percents only" `Quick
          test_spec_whole_percents;
        QCheck_alcotest.to_alcotest prop_spec_roundtrip;
      ] );
  ]
