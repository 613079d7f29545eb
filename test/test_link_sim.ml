(* Linker layout/relocation tests and simulator-level tests that drive
   hand-written machine code (flags, stack, syscalls, W^X). *)

let compile src = Driver.compile ~name:"ls-test" src

(* ---------------- linker ---------------- *)

let test_layout_runtime_first () =
  let c = compile "int main() { return 0; }" in
  let image = Driver.link_baseline c in
  let off name = Link.symbol_offset image name in
  Alcotest.(check int) "entry stub first" 0 (off Libc.start_symbol);
  List.iter
    (fun (name, o) ->
      if name <> "main" then
        Alcotest.(check bool)
          (name ^ " before user code")
          true
          (o < image.Link.user_start || name = "main"))
    image.Link.symbols;
  Alcotest.(check bool) "main in user region" true
    (off "main" >= image.Link.user_start)

let test_globals_layout () =
  let c =
    compile
      "global int a[4]; global int b; int main() { a[0] = 1; b = 2; return 0; }"
  in
  let image = Driver.link_baseline c in
  let addr n = List.assoc n image.Link.globals in
  (* __argv is first, then the program globals in declaration order. *)
  Alcotest.(check int32) "__argv at the base" Link.data_base
    (addr Libc.argv_symbol);
  Alcotest.(check int32) "a follows argv"
    (Int32.add Link.data_base (Int32.of_int (4 * Libc.argv_words)))
    (addr "a");
  Alcotest.(check int32) "b follows a" (Int32.add (addr "a") 16l) (addr "b")

let test_duplicate_symbol_rejected () =
  let c = compile "int wmemcpy(int a) { return a; } int main() { return 0; }" in
  match Driver.link_baseline c with
  | exception Failure m ->
      Alcotest.(check bool) "mentions duplicate" true
        (String.length m > 0)
  | _ -> Alcotest.fail "expected duplicate-symbol failure"

let test_call_relocation () =
  (* Verify a cross-function call displacement byte-exactly: decode the
     call in main and check it lands on the callee. *)
  let c =
    compile "int callee() { return 7; } int main() { return callee(); }"
  in
  let image = Driver.link_baseline c in
  let main_off = Link.symbol_offset image "main" in
  let callee_off = Link.symbol_offset image "callee" in
  (* Find the first E8 call inside main and compute its target. *)
  let rec find pos =
    if pos >= String.length image.Link.text then None
    else
      match Decode.insn ~pos image.Link.text with
      | Some (Insn.Call_rel d, len) -> Some (pos + len + Int32.to_int d)
      | Some (_, len) -> find (pos + len)
      | None -> None
  in
  match find main_off with
  | Some target -> Alcotest.(check int) "call target" callee_off target
  | None -> Alcotest.fail "no call found in main"

let test_save_load_roundtrip () =
  let c = compile "int main(int x) { print_int(x); return x; }" in
  let image = Driver.link_baseline c in
  let path = Filename.temp_file "psd" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Link.save image path;
      let loaded = Link.load path in
      Alcotest.(check string) "text preserved" image.Link.text loaded.Link.text;
      Alcotest.(check int) "entry preserved" image.Link.entry loaded.Link.entry;
      let r = Driver.run_image loaded ~args:[ 9l ] in
      Alcotest.(check string) "still runs" "9\n" r.Sim.output)

let test_load_bad_magic () =
  let path = Filename.temp_file "psd" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "NOTANIMAGE";
      close_out oc;
      match Link.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected bad-magic failure")

(* ---------------- simulator on hand-written code ---------------- *)

(* Link a hand-written function as "main" taking [arity] arguments. *)
let link_main ~arity (f : Asm.func) =
  Link.link_objects ~objects:[ Objfile.of_asm ~arity f ] ~globals:[] ()

(* Run a raw instruction sequence as "main". *)
let run_raw insns ~args =
  let f =
    { Asm.name = "main"; items = Asm.Label 0 :: List.map (fun i -> Asm.Ins i) insns }
  in
  Sim.run (link_main ~arity:(List.length args) f) ~args

let esp_mem d = Insn.Mem (Insn.mem_base ~disp:d Reg.ESP)

let test_unsigned_conditions () =
  (* -1 compared to 1: signed less, unsigned greater. *)
  let open Insn in
  let r =
    run_raw ~args:[]
      [
        Mov_r_imm (Reg.EAX, -1l);
        Alu_rm_imm (Cmp, Reg Reg.EAX, 1l);
        Setcc (Cond.L, Reg.AL);
        Movzx_r_r8 (Reg.EBX, Reg.AL);
        Mov_r_imm (Reg.EAX, -1l);
        Alu_rm_imm (Cmp, Reg Reg.EAX, 1l);
        Setcc (Cond.A, Reg.CL);
        Movzx_r_r8 (Reg.ECX, Reg.CL);
        (* result = signed*10 + unsigned *)
        Imul_r_rm (Reg.EBX, Reg Reg.EBX);
        Mov_rm_r (Reg Reg.EAX, Reg.EBX);
        Shift_imm (Shl, Reg Reg.EAX, 1);
        Shift_imm (Shl, Reg Reg.EBX, 3);
        Alu_rm_r (Add, Reg Reg.EAX, Reg.EBX);
        Alu_rm_r (Add, Reg Reg.EAX, Reg.ECX);
        Ret;
      ]
  in
  (* signed-less = 1, unsigned-above = 1: 1*10 + 1 = 11. *)
  Alcotest.(check int32) "L and A" 11l r.Sim.status

let test_overflow_flag () =
  let open Insn in
  (* INT_MAX + 1 overflows: OF set, so JO taken. *)
  let f =
    {
      Asm.name = "main";
      items =
        [
          Asm.Label 0;
          Asm.Ins (Mov_r_imm (Reg.EAX, Int32.max_int));
          Asm.Ins (Alu_rm_imm (Add, Reg Reg.EAX, 1l));
          Asm.Jcc_sym (Cond.O, 1);
          Asm.Ins (Mov_r_imm (Reg.EAX, 0l));
          Asm.Ins Ret;
          Asm.Label 1;
          Asm.Ins (Mov_r_imm (Reg.EAX, 1l));
          Asm.Ins Ret;
        ];
    }
  in
  let r = Sim.run (link_main ~arity:0 f) ~args:[] in
  Alcotest.(check int32) "overflow detected" 1l r.Sim.status

let test_push_pop_stack () =
  let open Insn in
  let r =
    run_raw ~args:[]
      [
        Push_imm 11l;
        Push_imm 22l;
        Pop_r Reg.EAX;
        Pop_r Reg.EBX;
        (* eax=22, ebx=11: return eax - ebx *)
        Alu_rm_r (Sub, Reg Reg.EAX, Reg.EBX);
        Ret;
      ]
  in
  Alcotest.(check int32) "lifo order" 11l r.Sim.status

let test_arg_access () =
  let open Insn in
  let r =
    run_raw ~args:[ 5l; 7l ]
      [ Mov_r_rm (Reg.EAX, esp_mem 8l); Ret ]
  in
  (* [esp+4] = arg0, [esp+8] = arg1 on entry to main. *)
  Alcotest.(check int32) "second argument" 7l r.Sim.status

let test_wx_fetch_from_data_faults () =
  let open Insn in
  match
    run_raw ~args:[]
      [ Mov_r_imm (Reg.EAX, Link.data_base); Jmp_rm (Reg Reg.EAX) ]
  with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "jumping into data must fault (W^X)"

let test_store_to_text_faults () =
  let open Insn in
  match
    run_raw ~args:[]
      [
        Mov_r_imm (Reg.EAX, Link.text_base);
        Mov_rm_imm (Mem (Insn.mem_base Reg.EAX), 0l);
        Ret;
      ]
  with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "writing text addresses must fault (W^X)"

let test_unknown_syscall_faults () =
  let open Insn in
  match
    run_raw ~args:[] [ Mov_r_imm (Reg.EAX, 77l); Int 0x80; Ret ]
  with
  | exception Sim.Fault _ -> ()
  | _ -> Alcotest.fail "unknown syscall must fault"

let test_run_at_stack_image () =
  (* run_at with an attacker stack: begin at a ret and let it pop the
     address of the exit stub's syscall tail. *)
  let c = compile "int main() { return 5; }" in
  let image = Driver.link_baseline c in
  (* a bare RET somewhere: use the one at the end of put_char. *)
  let ret_off =
    let rec find pos =
      match Decode.insn ~pos image.Link.text with
      | Some (Insn.Ret, _) -> pos
      | Some (_, len) -> find (pos + len)
      | None -> find (pos + 1)
    in
    find 0
  in
  let exit_off = Link.symbol_offset image "exit" in
  (* Skip exit's first insn so EBX (our payload) becomes the status. *)
  let skip =
    match Decode.insn ~pos:exit_off image.Link.text with
    | Some (_, len) -> len
    | None -> 0
  in
  let r =
    Sim.run_at image ~start_offset:ret_off
      ~stack_image:
        [ Int32.add image.Link.text_base (Int32.of_int (exit_off + skip)) ]
      ~fuel:10_000L
  in
  (* EBX was 0 at start; exit(EBX). *)
  Alcotest.(check int32) "ret-to-exit chain ran" 0l r.Sim.status

let test_icache_counts_misses () =
  let c =
    compile
      {|
      int main(int n) {
        int s = 0;
        for (int i = 0; i < n; i = i + 1) s = s + i;
        return s & 127;
      }
      |}
  in
  let image = Driver.link_baseline c in
  let r1 = Driver.run_image image ~args:[ 10l ] in
  let r2 = Driver.run_image image ~args:[ 10000l ] in
  Alcotest.(check bool) "some compulsory misses" true
    (r1.Sim.icache_misses > 0L);
  (* The loop fits in the cache: longer runs add almost no misses. *)
  Alcotest.(check bool) "hot loop hits" true
    (Int64.sub r2.Sim.icache_misses r1.Sim.icache_misses < 16L)

let suite =
  [
    ( "link.layout",
      [
        Alcotest.test_case "runtime first" `Quick test_layout_runtime_first;
        Alcotest.test_case "globals layout" `Quick test_globals_layout;
        Alcotest.test_case "duplicate symbol" `Quick
          test_duplicate_symbol_rejected;
        Alcotest.test_case "call relocation" `Quick test_call_relocation;
        Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "bad magic" `Quick test_load_bad_magic;
      ] );
    ( "sim.machine-state",
      [
        Alcotest.test_case "unsigned conditions" `Quick
          test_unsigned_conditions;
        Alcotest.test_case "overflow flag" `Quick test_overflow_flag;
        Alcotest.test_case "push/pop" `Quick test_push_pop_stack;
        Alcotest.test_case "argument access" `Quick test_arg_access;
        Alcotest.test_case "W^X fetch" `Quick test_wx_fetch_from_data_faults;
        Alcotest.test_case "W^X store" `Quick test_store_to_text_faults;
        Alcotest.test_case "unknown syscall" `Quick
          test_unknown_syscall_faults;
        Alcotest.test_case "run_at stack image" `Quick
          test_run_at_stack_image;
        Alcotest.test_case "icache" `Quick test_icache_counts_misses;
      ] );
  ]
