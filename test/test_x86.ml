
let hex s =
  String.concat " "
    (List.init (String.length s) (fun i -> Printf.sprintf "%02X" (Char.code s.[i])))

let check_enc msg expected insn =
  Alcotest.(check string) msg expected (hex (Encode.insn insn))

let insn_testable = Alcotest.testable Insn.pp Insn.equal

(* ------------------------------------------------------------------ *)
(* Table 1: the NOP candidates must have the exact byte encodings the
   paper lists, and the declared second-byte decodings. *)

let test_table1_encodings () =
  let expected =
    [ "90"; "89 E4"; "89 ED"; "8D 36"; "8D 3F"; "87 E4"; "87 ED" ]
  in
  List.iter2
    (fun e (c : Nops.candidate) ->
      Alcotest.(check string) (Insn.to_string c.insn) e (hex c.encoding))
    expected Nops.all

let test_table1_default_excludes_xchg () =
  Alcotest.(check int) "five default candidates" 5 (Array.length Nops.default);
  Array.iter
    (fun i ->
      match i with
      | Insn.Xchg_rm_r _ -> Alcotest.fail "XCHG must be excluded by default"
      | _ -> ())
    Nops.default;
  Alcotest.(check int) "seven with xchg" 7 (Array.length Nops.with_xchg)

let test_table1_candidates_roundtrip () =
  List.iter
    (fun (c : Nops.candidate) ->
      match Decode.insn c.encoding with
      | Some (i, len) ->
          Alcotest.check insn_testable "decodes back" c.insn i;
          Alcotest.(check int) "full length" (String.length c.encoding) len
      | None -> Alcotest.fail "candidate must decode")
    Nops.all

let test_nop_strip () =
  let open Insn in
  let body = [ Push_r Reg.EAX; Nop; Mov_rm_r (Reg Reg.ESP, Reg.ESP); Ret ] in
  Alcotest.(check int) "strips both" 2 (List.length (Nops.strip body));
  Alcotest.(check bool)
    "is_candidate lea esi" true
    (Nops.is_candidate (Lea (Reg.ESI, mem_base Reg.ESI)));
  Alcotest.(check bool)
    "plain lea not candidate" false
    (Nops.is_candidate (Lea (Reg.ESI, mem_base ~disp:4l Reg.ESI)))

(* ------------------------------------------------------------------ *)
(* Known encodings, byte for byte against the Intel SDM. *)

let test_known_encodings () =
  let open Insn in
  let open Reg in
  check_enc "ret" "C3" Ret;
  check_enc "ret 8" "C2 08 00" (Ret_imm 8);
  check_enc "push eax" "50" (Push_r EAX);
  check_enc "pop edi" "5F" (Pop_r EDI);
  check_enc "push imm" "68 78 56 34 12" (Push_imm 0x12345678l);
  check_enc "mov eax, 1" "B8 01 00 00 00" (Mov_r_imm (EAX, 1l));
  check_enc "mov edx, -1" "BA FF FF FF FF" (Mov_r_imm (EDX, -1l));
  check_enc "mov ecx, ebx (89)" "89 D9" (Mov_rm_r (Reg ECX, EBX));
  check_enc "mov ecx, ebx (8B)" "8B CB" (Mov_r_rm (ECX, Reg EBX));
  check_enc "add eax, ebx" "01 D8" (Alu_rm_r (Add, Reg EAX, EBX));
  check_enc "sub eax, ebx" "29 D8" (Alu_rm_r (Sub, Reg EAX, EBX));
  check_enc "xor eax, eax" "31 C0" (Alu_rm_r (Xor, Reg EAX, EAX));
  check_enc "cmp eax, [ebx]" "3B 03" (Alu_r_rm (Cmp, EAX, Mem (mem_base EBX)));
  check_enc "add eax, 5 (imm8)" "83 C0 05" (Alu_rm_imm (Add, Reg EAX, 5l));
  check_enc "add eax, 0x100 (imm32)" "81 C0 00 01 00 00"
    (Alu_rm_imm (Add, Reg EAX, 0x100l));
  check_enc "sub esp, 8" "83 EC 08" (Alu_rm_imm (Sub, Reg ESP, 8l));
  check_enc "test eax, eax" "85 C0" (Test_rm_r (Reg EAX, EAX));
  check_enc "inc eax" "40" (Inc_r EAX);
  check_enc "dec ebx" "4B" (Dec_r EBX);
  check_enc "neg eax" "F7 D8" (Neg (Reg EAX));
  check_enc "not ecx" "F7 D1" (Not (Reg ECX));
  check_enc "imul eax, ebx" "0F AF C3" (Imul_r_rm (EAX, Reg EBX));
  check_enc "idiv ebx" "F7 FB" (Idiv (Reg EBX));
  check_enc "mul ebx" "F7 E3" (Mul (Reg EBX));
  check_enc "cdq" "99" Cdq;
  check_enc "shl eax, 4" "C1 E0 04" (Shift_imm (Shl, Reg EAX, 4));
  check_enc "sar edx, 1" "C1 FA 01" (Shift_imm (Sar, Reg EDX, 1));
  check_enc "shr ebx, cl" "D3 EB" (Shift_cl (Shr, Reg EBX));
  check_enc "call +0" "E8 00 00 00 00" (Call_rel 0l);
  check_enc "jmp -5" "E9 FB FF FF FF" (Jmp_rel (-5l));
  check_enc "jmp short +2" "EB 02" (Jmp_rel8 2);
  check_enc "je +16" "0F 84 10 00 00 00" (Jcc (Cond.E, 16l));
  check_enc "jne short -2" "75 FE" (Jcc8 (Cond.NE, -2));
  check_enc "sete al" "0F 94 C0" (Setcc (Cond.E, AL));
  check_enc "setl bl" "0F 9C C3" (Setcc (Cond.L, BL));
  check_enc "movzx eax, al" "0F B6 C0" (Movzx_r_r8 (EAX, AL));
  check_enc "call *eax" "FF D0" (Call_rm (Reg EAX));
  check_enc "jmp *edx" "FF E2" (Jmp_rm (Reg EDX));
  check_enc "int 0x80" "CD 80" (Int 0x80);
  check_enc "hlt" "F4" Hlt;
  check_enc "nop" "90" Nop

let test_mem_encodings () =
  let open Insn in
  let open Reg in
  (* [ebx]: mod=00. *)
  check_enc "mov eax, [ebx]" "8B 03" (Mov_r_rm (EAX, Mem (mem_base EBX)));
  (* [ebx+8]: disp8. *)
  check_enc "mov eax, [ebx+8]" "8B 43 08"
    (Mov_r_rm (EAX, Mem (mem_base ~disp:8l EBX)));
  (* [ebx+0x100]: disp32. *)
  check_enc "mov eax, [ebx+0x100]" "8B 83 00 01 00 00"
    (Mov_r_rm (EAX, Mem (mem_base ~disp:0x100l EBX)));
  (* [ebp]: EBP base forces a displacement byte. *)
  check_enc "mov eax, [ebp]" "8B 45 00" (Mov_r_rm (EAX, Mem (mem_base EBP)));
  check_enc "mov eax, [ebp-4]" "8B 45 FC"
    (Mov_r_rm (EAX, Mem (mem_base ~disp:(-4l) EBP)));
  (* [esp]: ESP base forces SIB. *)
  check_enc "mov eax, [esp]" "8B 04 24" (Mov_r_rm (EAX, Mem (mem_base ESP)));
  check_enc "mov eax, [esp+4]" "8B 44 24 04"
    (Mov_r_rm (EAX, Mem (mem_base ~disp:4l ESP)));
  (* Absolute. *)
  check_enc "mov eax, [0x1234]" "8B 05 34 12 00 00"
    (Mov_r_rm (EAX, Mem (mem_abs 0x1234l)));
  (* Base + index*scale. *)
  check_enc "mov eax, [ebx+esi*4]" "8B 04 B3"
    (Mov_r_rm (EAX, Mem (mem_index ~base:EBX ~index:ESI S4)));
  check_enc "mov eax, [ebx+esi*4+8]" "8B 44 B3 08"
    (Mov_r_rm (EAX, Mem (mem_index ~disp:8l ~base:EBX ~index:ESI S4)));
  (* Index without base. *)
  check_enc "mov eax, [esi*2+0x10]" "8B 04 75 10 00 00 00"
    (Mov_r_rm
       (EAX, Mem { base = None; index = Some (ESI, S2); disp = 0x10l }));
  (* lea with EBP base and index. *)
  check_enc "lea eax, [ebp+ecx*1-8]" "8D 44 0D F8"
    (Lea (EAX, mem_index ~disp:(-8l) ~base:EBP ~index:ECX S1))

let test_esp_index_rejected () =
  Alcotest.check_raises "mem_index rejects ESP"
    (Invalid_argument "Insn.mem_index: ESP cannot be an index register")
    (fun () ->
      ignore (Insn.mem_index ~base:Reg.EAX ~index:Reg.ESP Insn.S1));
  Alcotest.check_raises "encoder rejects ESP index"
    (Invalid_argument "Encode: ESP cannot be an index register") (fun () ->
      ignore
        (Encode.insn
           (Insn.Mov_r_rm
              ( Reg.EAX,
                Insn.Mem
                  {
                    base = Some Reg.EAX;
                    index = Some (Reg.ESP, Insn.S1);
                    disp = 0l;
                  } ))))

(* ------------------------------------------------------------------ *)
(* Decoding. *)

let bytes_of_hex s =
  let b = Buffer.create 16 in
  String.split_on_char ' ' s
  |> List.iter (fun tok ->
         if tok <> "" then Buffer.add_char b (Char.chr (int_of_string ("0x" ^ tok))));
  Buffer.contents b

let check_dec msg hexstr expected =
  match Decode.insn (bytes_of_hex hexstr) with
  | Some (i, len) ->
      Alcotest.check insn_testable msg expected i;
      Alcotest.(check int) (msg ^ " length")
        (String.length (bytes_of_hex hexstr))
        len
  | None -> Alcotest.fail (msg ^ ": failed to decode")

let test_known_decodings () =
  let open Insn in
  let open Reg in
  check_dec "ret" "C3" Ret;
  check_dec "mov esp, esp" "89 E4" (Mov_rm_r (Reg ESP, ESP));
  check_dec "lea esi, [esi]" "8D 36" (Lea (ESI, mem_base ESI));
  check_dec "pop ecx" "59" (Pop_r ECX);
  check_dec "adc [ecx], eax" "11 01" (Alu_rm_r (Adc, Mem (mem_base ECX), EAX));
  check_dec "mov [ecx], edx" "89 11" (Mov_rm_r (Mem (mem_base ECX), EDX));
  check_dec "add ebx, eax" "01 C3" (Alu_rm_r (Add, Reg EBX, EAX));
  check_dec "rol-like bytes are invalid in our subset" "90" Nop

let test_decode_invalid () =
  let none hexstr =
    Alcotest.(check bool)
      (hexstr ^ " undecodable") true
      (Decode.insn (bytes_of_hex hexstr) = None)
  in
  none "FF D8" (* FF /3 — not call/jmp *);
  none "C7 C8 01 00 00 00" (* C7 /1 invalid *);
  none "F7 C0" (* F7 /0 (test imm) not in subset *);
  none "C1 C0 01" (* C1 /0 (rol) not in subset *);
  none "0F 05" (* syscall — not in 32-bit subset *);
  none "8D C0" (* lea with register operand *);
  none "06" (* push es — not in subset *);
  none "C1 E0 20" (* shift count 32 out of range *);
  none "E8 00 00" (* truncated rel32 *);
  none "8B" (* truncated modrm *);
  none "8B 84" (* truncated sib *);
  Alcotest.(check bool) "empty" true (Decode.insn "" = None);
  Alcotest.(check bool) "pos past end" true (Decode.insn ~pos:10 "\x90" = None)

let test_decode_sequence () =
  let open Insn in
  let prog =
    [ Push_r Reg.EBP; Mov_rm_r (Reg Reg.EBP, Reg.ESP); Pop_r Reg.EBP; Ret ]
  in
  let bytes = Encode.program prog in
  let decoded = List.map snd (Decode.all bytes) in
  Alcotest.(check (list insn_testable)) "roundtrip program" prog decoded

let test_decode_sequence_stops_at_bad () =
  let bytes = Encode.insn Insn.Ret ^ "\x06" ^ Encode.insn Insn.Nop in
  Alcotest.(check int) "stops at bad byte" 1 (List.length (Decode.all bytes))

let test_decode_max () =
  let bytes = Encode.program [ Insn.Nop; Insn.Nop; Insn.Nop ] in
  Alcotest.(check int) "max limits" 2 (List.length (Decode.sequence ~max:2 bytes))

(* Paper Figure 2: decoding the same bytes at a one-byte offset turns
   "mov [ecx], edx ; add ebx, eax" into "adc [ecx], eax ; ret" — the
   hidden gadget. *)
let test_figure2_overlapping_decode () =
  let open Insn in
  let bytes = bytes_of_hex "89 11 01 C3" in
  (match Decode.sequence bytes with
  | [ (Mov_rm_r _, 0); (Alu_rm_r (Add, Reg Reg.EBX, Reg.EAX), 2) ] -> ()
  | _ -> Alcotest.fail "intended stream decodes as mov;add");
  match Decode.sequence ~pos:1 bytes with
  | [ (Alu_rm_r (Adc, Mem _, Reg.EAX), 1); (Ret, 3) ] -> ()
  | _ -> Alcotest.fail "offset stream decodes as adc;ret (hidden gadget)"

(* ------------------------------------------------------------------ *)
(* Classification. *)

let test_classification () =
  let open Insn in
  Alcotest.(check bool) "ret is free branch" true (is_free_branch Ret);
  Alcotest.(check bool) "call *eax is free branch" true
    (is_free_branch (Call_rm (Reg Reg.EAX)));
  Alcotest.(check bool) "jmp *[eax] is free branch" true
    (is_free_branch (Jmp_rm (Mem (mem_base Reg.EAX))));
  Alcotest.(check bool) "direct call is not free" false
    (is_free_branch (Call_rel 0l));
  Alcotest.(check bool) "direct jmp is not free" false
    (is_free_branch (Jmp_rel 0l));
  Alcotest.(check bool) "jcc is control flow" true
    (is_control_flow (Jcc (Cond.E, 0l)));
  Alcotest.(check bool) "jcc is not terminator" false
    (is_terminator (Jcc (Cond.E, 0l)));
  Alcotest.(check bool) "jmp is terminator" true (is_terminator (Jmp_rel 0l));
  Alcotest.(check bool) "call is not terminator" false
    (is_terminator (Call_rel 0l))

let test_cond_negate () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "double negation" true
        (Cond.equal c (Cond.negate (Cond.negate c)));
      Alcotest.(check bool) "negation differs" false
        (Cond.equal c (Cond.negate c)))
    [ Cond.O; Cond.B; Cond.E; Cond.NE; Cond.L; Cond.GE; Cond.LE; Cond.G ]

let test_reg_encodings () =
  List.iteri
    (fun i r ->
      Alcotest.(check int) (Reg.name r) i (Reg.encode r);
      Alcotest.(check bool) "decode inverse" true
        (Reg.equal r (Reg.decode i)))
    Reg.all

(* ------------------------------------------------------------------ *)
(* Property: decode is a left inverse of encode for every instruction. *)

let gen_reg = QCheck.Gen.oneofl Reg.all
let gen_reg8 = QCheck.Gen.oneofl [ Reg.AL; Reg.CL; Reg.DL; Reg.BL ]
let gen_cond = QCheck.Gen.map Cond.decode (QCheck.Gen.int_bound 15)
let gen_imm32 = QCheck.Gen.map Int32.of_int (QCheck.Gen.int_range (-0x40000000) 0x3FFFFFFF)

let gen_mem =
  let open QCheck.Gen in
  let gen_index =
    oneofl (List.filter (fun r -> not (Reg.equal r Reg.ESP)) Reg.all)
  in
  let* base = opt gen_reg in
  let* index =
    match base with
    | None -> opt (pair gen_index (oneofl Insn.[ S1; S2; S4; S8 ]))
    | Some _ -> opt (pair gen_index (oneofl Insn.[ S1; S2; S4; S8 ]))
  in
  let* disp = gen_imm32 in
  return { Insn.base; index; disp }

let gen_operand =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun r -> Insn.Reg r) gen_reg;
      QCheck.Gen.map (fun m -> Insn.Mem m) gen_mem;
    ]

let gen_insn =
  let open QCheck.Gen in
  let open Insn in
  let gen_alu = oneofl [ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
  let gen_shift = oneofl [ Shl; Shr; Sar ] in
  oneof
    [
      map2 (fun o r -> Mov_rm_r (o, r)) gen_operand gen_reg;
      map2 (fun r o -> Mov_r_rm (r, o)) gen_reg gen_operand;
      map2 (fun r i -> Mov_r_imm (r, i)) gen_reg gen_imm32;
      map2 (fun o i -> Mov_rm_imm (o, i)) gen_operand gen_imm32;
      map3 (fun a o r -> Alu_rm_r (a, o, r)) gen_alu gen_operand gen_reg;
      map3 (fun a r o -> Alu_r_rm (a, r, o)) gen_alu gen_reg gen_operand;
      map3 (fun a o i -> Alu_rm_imm (a, o, i)) gen_alu gen_operand gen_imm32;
      map2 (fun o r -> Test_rm_r (o, r)) gen_operand gen_reg;
      map2 (fun r m -> Lea (r, m)) gen_reg gen_mem;
      map (fun r -> Inc_r r) gen_reg;
      map (fun r -> Dec_r r) gen_reg;
      map (fun o -> Neg o) gen_operand;
      map (fun o -> Not o) gen_operand;
      map2 (fun r o -> Imul_r_rm (r, o)) gen_reg gen_operand;
      map (fun o -> Mul o) gen_operand;
      map (fun o -> Idiv o) gen_operand;
      return Cdq;
      map3 (fun s o n -> Shift_imm (s, o, n)) gen_shift gen_operand (int_bound 31);
      map2 (fun s o -> Shift_cl (s, o)) gen_shift gen_operand;
      map (fun r -> Push_r r) gen_reg;
      map (fun i -> Push_imm i) gen_imm32;
      map (fun r -> Pop_r r) gen_reg;
      return Ret;
      map (fun n -> Ret_imm n) (int_bound 0xFFFF);
      map (fun d -> Call_rel d) gen_imm32;
      map (fun o -> Call_rm o) gen_operand;
      map (fun d -> Jmp_rel d) gen_imm32;
      map (fun d -> Jmp_rel8 d) (int_range (-128) 127);
      map (fun o -> Jmp_rm o) gen_operand;
      map2 (fun c d -> Jcc (c, d)) gen_cond gen_imm32;
      map2 (fun c d -> Jcc8 (c, d)) gen_cond (int_range (-128) 127);
      map2 (fun c r -> Setcc (c, r)) gen_cond gen_reg8;
      map2 (fun r r8 -> Movzx_r_r8 (r, r8)) gen_reg gen_reg8;
      map2 (fun o r -> Xchg_rm_r (o, r)) gen_operand gen_reg;
      map (fun n -> Int n) (int_bound 0xFF);
      return Nop;
      return Hlt;
    ]

let arb_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arb_insn (fun i ->
      let bytes = Encode.insn i in
      match Decode.insn bytes with
      | Some (j, len) -> Insn.equal i j && len = String.length bytes
      | None -> false)

let prop_length_consistent =
  QCheck.Test.make ~name:"Encode.length agrees with Encode.insn" ~count:500
    arb_insn (fun i -> Encode.length i = String.length (Encode.insn i))

let prop_decode_never_raises =
  QCheck.Test.make ~name:"decode never raises on random bytes" ~count:2000
    QCheck.(string_of_size (Gen.int_bound 16))
    (fun s ->
      match Decode.insn s with
      | Some (_, len) -> len > 0 && len <= String.length s
      | None -> true)

let prop_program_concat =
  QCheck.Test.make ~name:"program = concat of insn encodings" ~count:200
    QCheck.(list_of_size (Gen.int_bound 10) arb_insn)
    (fun insns ->
      Encode.program insns = String.concat "" (List.map Encode.insn insns))

let suite =
  [
    ( "x86.table1",
      [
        Alcotest.test_case "encodings" `Quick test_table1_encodings;
        Alcotest.test_case "default excludes XCHG" `Quick
          test_table1_default_excludes_xchg;
        Alcotest.test_case "candidates roundtrip" `Quick
          test_table1_candidates_roundtrip;
        Alcotest.test_case "strip" `Quick test_nop_strip;
      ] );
    ( "x86.encode",
      [
        Alcotest.test_case "known encodings" `Quick test_known_encodings;
        Alcotest.test_case "memory operands" `Quick test_mem_encodings;
        Alcotest.test_case "ESP index rejected" `Quick test_esp_index_rejected;
      ] );
    ( "x86.decode",
      [
        Alcotest.test_case "known decodings" `Quick test_known_decodings;
        Alcotest.test_case "invalid bytes" `Quick test_decode_invalid;
        Alcotest.test_case "sequence roundtrip" `Quick test_decode_sequence;
        Alcotest.test_case "sequence stops at bad" `Quick
          test_decode_sequence_stops_at_bad;
        Alcotest.test_case "sequence max" `Quick test_decode_max;
        Alcotest.test_case "figure 2 overlapping decode" `Quick
          test_figure2_overlapping_decode;
      ] );
    ( "x86.classify",
      [
        Alcotest.test_case "free branches etc." `Quick test_classification;
        Alcotest.test_case "cond negate" `Quick test_cond_negate;
        Alcotest.test_case "reg encodings" `Quick test_reg_encodings;
      ] );
    ( "x86.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip;
          prop_length_consistent;
          prop_decode_never_raises;
          prop_program_concat;
        ] );
  ]
