open Insn
open Reg

let start_symbol = "_start"
let argv_symbol = "__argv"
let argv_words = 8

let ins = Asm.ins
let esp_mem disp = Insn.mem_base ~disp ESP
let ebp_mem disp = Insn.mem_base ~disp EBP

(* crt0: load main's arguments from __argv (left to right in memory,
   pushed right to left), call main, exit(main's result). *)
let start ~main ~main_arity =
  if main_arity > argv_words then
    invalid_arg
      (Printf.sprintf "Libc.start: main takes %d args (max %d)" main_arity
         argv_words);
  let arg_pushes =
    List.concat
      (List.init main_arity (fun k ->
           (* Push argv[arity-1-k]. *)
           let i = main_arity - 1 - k in
           [
             Asm.Mov_sym (EAX, argv_symbol);
             ins (Mov_r_rm (EDX, Mem (mem_base ~disp:(Int32.of_int (4 * i)) EAX)));
             ins (Push_r EDX);
           ]))
  in
  Asm.func start_symbol
    ((Asm.Label 0 :: arg_pushes)
    @ [ Asm.Call_sym main ]
    @ [
        ins (Mov_rm_r (Reg EBX, EAX));
        ins (Mov_r_imm (EAX, 1l));
        ins (Int 0x80);
        ins Hlt (* unreachable: the exit syscall never returns *);
      ])

(* print_int(v): decimal representation of a signed 32-bit value, then a
   newline.  Digits are produced by repeated signed division so INT_MIN
   needs no special case; they are pushed and popped to reverse order. *)
let print_int =
  let l_loop = 1 and l_store = 2 and l_emit = 3 in
  Asm.func "print_int"
    [
      Asm.Label 0;
      ins (Push_r EBP);
      ins (Mov_rm_r (Reg EBP, ESP));
      ins (Push_r EBX);
      ins (Push_r ESI);
      ins (Mov_r_rm (EAX, Mem (ebp_mem 8l)));
      ins (Mov_r_imm (ESI, 0l));
      ins (Alu_rm_imm (Cmp, Reg EAX, 0l));
      Asm.Jcc_sym (Cond.GE, l_loop);
      (* negative: emit '-' *)
      ins (Push_r EAX);
      ins (Mov_r_imm (EAX, 4l));
      ins (Mov_r_imm (EBX, 45l));
      ins (Int 0x80);
      ins (Pop_r EAX);
      Asm.Label l_loop;
      ins Cdq;
      ins (Mov_r_imm (ECX, 10l));
      ins (Idiv (Reg ECX));
      (* digit = |remainder| *)
      ins (Alu_rm_imm (Cmp, Reg EDX, 0l));
      Asm.Jcc_sym (Cond.GE, l_store);
      ins (Neg (Reg EDX));
      Asm.Label l_store;
      ins (Alu_rm_imm (Add, Reg EDX, 48l));
      ins (Push_r EDX);
      ins (Inc_r ESI);
      ins (Test_rm_r (Reg EAX, EAX));
      Asm.Jcc_sym (Cond.NE, l_loop);
      Asm.Label l_emit;
      ins (Pop_r EBX);
      ins (Mov_r_imm (EAX, 4l));
      ins (Int 0x80);
      ins (Dec_r ESI);
      ins (Test_rm_r (Reg ESI, ESI));
      Asm.Jcc_sym (Cond.NE, l_emit);
      (* newline *)
      ins (Mov_r_imm (EAX, 4l));
      ins (Mov_r_imm (EBX, 10l));
      ins (Int 0x80);
      ins (Mov_r_imm (EAX, 0l));
      ins (Pop_r ESI);
      ins (Pop_r EBX);
      ins (Pop_r EBP);
      ins Ret;
    ]

(* put_char(c): write one byte.  EBX is callee-saved, so preserve it. *)
let put_char =
  Asm.func "put_char"
    [
      Asm.Label 0;
      ins (Push_r EBX);
      ins (Mov_r_rm (EBX, Mem (esp_mem 8l)));
      ins (Mov_r_imm (EAX, 4l));
      ins (Int 0x80);
      ins (Mov_r_imm (EAX, 0l));
      ins (Pop_r EBX);
      ins Ret;
    ]

let exit_ =
  Asm.func "exit"
    [
      Asm.Label 0;
      ins (Mov_r_rm (EBX, Mem (esp_mem 4l)));
      ins (Mov_r_imm (EAX, 1l));
      ins (Int 0x80);
      ins Hlt;
    ]

(* ------------------------------------------------------------------ *)
(* Utility routines.  Real toolchains link in a pile of library code the
   program may never call; these give our binaries the same fixed,
   undiversified code mass (word-wise because the machine language is
   word-oriented). *)

(* wmemcpy(dst, src, n): copy n words. *)
let wmemcpy =
  let l_loop = 1 and l_done = 2 in
  Asm.func "wmemcpy"
    [
      Asm.Label 0;
      ins (Push_r EBX);
      ins (Push_r ESI);
      ins (Push_r EDI);
      ins (Mov_r_rm (EDI, Mem (esp_mem 16l)));
      ins (Mov_r_rm (ESI, Mem (esp_mem 20l)));
      ins (Mov_r_rm (ECX, Mem (esp_mem 24l)));
      Asm.Label l_loop;
      ins (Test_rm_r (Reg ECX, ECX));
      Asm.Jcc_sym (Cond.E, l_done);
      ins (Mov_r_rm (EAX, Mem (mem_base ESI)));
      ins (Mov_rm_r (Mem (mem_base EDI), EAX));
      ins (Alu_rm_imm (Add, Reg ESI, 4l));
      ins (Alu_rm_imm (Add, Reg EDI, 4l));
      ins (Dec_r ECX);
      Asm.Jmp_sym l_loop;
      Asm.Label l_done;
      ins (Mov_r_rm (EAX, Mem (esp_mem 16l)));
      ins (Pop_r EDI);
      ins (Pop_r ESI);
      ins (Pop_r EBX);
      ins Ret;
    ]

(* wmemset(dst, v, n): fill n words. *)
let wmemset =
  let l_loop = 1 and l_done = 2 in
  Asm.func "wmemset"
    [
      Asm.Label 0;
      ins (Push_r EDI);
      ins (Mov_r_rm (EDI, Mem (esp_mem 8l)));
      ins (Mov_r_rm (EDX, Mem (esp_mem 12l)));
      ins (Mov_r_rm (ECX, Mem (esp_mem 16l)));
      Asm.Label l_loop;
      ins (Test_rm_r (Reg ECX, ECX));
      Asm.Jcc_sym (Cond.E, l_done);
      ins (Mov_rm_r (Mem (mem_base EDI), EDX));
      ins (Alu_rm_imm (Add, Reg EDI, 4l));
      ins (Dec_r ECX);
      Asm.Jmp_sym l_loop;
      Asm.Label l_done;
      ins (Mov_r_rm (EAX, Mem (esp_mem 8l)));
      ins (Pop_r EDI);
      ins Ret;
    ]

(* wmemcmp(a, b, n): first difference as a-b, else 0. *)
let wmemcmp =
  let l_loop = 1 and l_done = 2 and l_diff = 3 in
  Asm.func "wmemcmp"
    [
      Asm.Label 0;
      ins (Push_r ESI);
      ins (Push_r EDI);
      ins (Mov_r_rm (ESI, Mem (esp_mem 12l)));
      ins (Mov_r_rm (EDI, Mem (esp_mem 16l)));
      ins (Mov_r_rm (ECX, Mem (esp_mem 20l)));
      Asm.Label l_loop;
      ins (Test_rm_r (Reg ECX, ECX));
      Asm.Jcc_sym (Cond.E, l_done);
      ins (Mov_r_rm (EAX, Mem (mem_base ESI)));
      ins (Mov_r_rm (EDX, Mem (mem_base EDI)));
      ins (Alu_rm_r (Cmp, Reg EAX, EDX));
      Asm.Jcc_sym (Cond.NE, l_diff);
      ins (Alu_rm_imm (Add, Reg ESI, 4l));
      ins (Alu_rm_imm (Add, Reg EDI, 4l));
      ins (Dec_r ECX);
      Asm.Jmp_sym l_loop;
      Asm.Label l_diff;
      ins (Alu_rm_r (Sub, Reg EAX, EDX));
      ins (Pop_r EDI);
      ins (Pop_r ESI);
      ins Ret;
      Asm.Label l_done;
      ins (Mov_r_imm (EAX, 0l));
      ins (Pop_r EDI);
      ins (Pop_r ESI);
      ins Ret;
    ]

(* wsum(p, n): sum of n words. *)
let wsum =
  let l_loop = 1 and l_done = 2 in
  Asm.func "wsum"
    [
      Asm.Label 0;
      ins (Push_r ESI);
      ins (Mov_r_rm (ESI, Mem (esp_mem 8l)));
      ins (Mov_r_rm (ECX, Mem (esp_mem 12l)));
      ins (Mov_r_imm (EAX, 0l));
      Asm.Label l_loop;
      ins (Test_rm_r (Reg ECX, ECX));
      Asm.Jcc_sym (Cond.E, l_done);
      ins (Mov_r_rm (EDX, Mem (mem_base ESI)));
      ins (Alu_rm_r (Add, Reg EAX, EDX));
      ins (Alu_rm_imm (Add, Reg ESI, 4l));
      ins (Dec_r ECX);
      Asm.Jmp_sym l_loop;
      Asm.Label l_done;
      ins (Pop_r ESI);
      ins Ret;
    ]

(* labs_(v), lmin(a,b), lmax(a,b): small leaf routines. *)
let labs_ =
  let l_done = 1 in
  Asm.func "labs_"
    [
      Asm.Label 0;
      ins (Mov_r_rm (EAX, Mem (esp_mem 4l)));
      ins (Alu_rm_imm (Cmp, Reg EAX, 0l));
      Asm.Jcc_sym (Cond.GE, l_done);
      ins (Neg (Reg EAX));
      Asm.Label l_done;
      ins Ret;
    ]

let lmin =
  let l_done = 1 in
  Asm.func "lmin"
    [
      Asm.Label 0;
      ins (Mov_r_rm (EAX, Mem (esp_mem 4l)));
      ins (Mov_r_rm (EDX, Mem (esp_mem 8l)));
      ins (Alu_rm_r (Cmp, Reg EAX, EDX));
      Asm.Jcc_sym (Cond.LE, l_done);
      ins (Mov_rm_r (Reg EAX, EDX));
      Asm.Label l_done;
      ins Ret;
    ]

let lmax =
  let l_done = 1 in
  Asm.func "lmax"
    [
      Asm.Label 0;
      ins (Mov_r_rm (EAX, Mem (esp_mem 4l)));
      ins (Mov_r_rm (EDX, Mem (esp_mem 8l)));
      ins (Alu_rm_r (Cmp, Reg EAX, EDX));
      Asm.Jcc_sym (Cond.GE, l_done);
      ins (Mov_rm_r (Reg EAX, EDX));
      Asm.Label l_done;
      ins Ret;
    ]

let funcs =
  [ print_int; put_char; exit_; wmemcpy; wmemset; wmemcmp; wsum; labs_; lmin; lmax ]
