open Insn

let fits_int8 (v : int32) = v >= -128l && v <= 127l

let byte buf n = Buffer.add_char buf (Char.unsafe_chr (n land 0xFF))
let int32_le = Buffer.add_int32_le

let int16_le buf v =
  byte buf v;
  byte buf (v asr 8)

let scale_bits = function S1 -> 0 | S2 -> 1 | S4 -> 2 | S8 -> 3

(* ModRM byte: mod(7:6) reg(5:3) rm(2:0); SIB: scale(7:6) index(5:3)
   base(2:0).  [reg_field] is either a register number or an opcode
   extension digit.  Plain functions rather than local closures: every
   memory operand of every assembled instruction comes through here. *)
let mrm buf md reg_field rm = byte buf ((md lsl 6) lor (reg_field lsl 3) lor rm)

let sib buf index base_bits =
  match index with
  | None -> byte buf ((0b100 lsl 3) lor base_bits)
  | Some (i, s) ->
      byte buf ((scale_bits s lsl 6) lor (Reg.encode i lsl 3) lor base_bits)

let modrm buf ~reg_field operand =
  match operand with
  | Reg r -> mrm buf 0b11 reg_field (Reg.encode r)
  | Mem { base; index; disp } -> (
      (match index with
      | Some (i, _) when Reg.equal i Reg.ESP ->
          invalid_arg "Encode: ESP cannot be an index register"
      | _ -> ());
      match base with
      | None ->
          (* Absolute [disp32]: mod=00, rm=101.  Index without base:
             mod=00 rm=100, SIB base=101, disp32. *)
          if Option.is_none index then mrm buf 0b00 reg_field 0b101
          else (
            mrm buf 0b00 reg_field 0b100;
            sib buf index 0b101);
          int32_le buf disp
      | Some b ->
          let base_bits = Reg.encode b in
          (* mod=00 with base EBP means [disp32] instead, so EBP always
             carries an explicit displacement. *)
          let md =
            if disp = 0l && not (Reg.equal b Reg.EBP) then 0b00
            else if fits_int8 disp then 0b01
            else 0b10
          in
          if Option.is_some index || Reg.equal b Reg.ESP then (
            mrm buf md reg_field 0b100;
            sib buf index base_bits)
          else mrm buf md reg_field base_bits;
          if md = 0b01 then byte buf (Int32.to_int disp)
          else if md = 0b10 then int32_le buf disp)

let alu_digit = function
  | Add -> 0
  | Or -> 1
  | Adc -> 2
  | Sbb -> 3
  | And -> 4
  | Sub -> 5
  | Xor -> 6
  | Cmp -> 7

let shift_digit = function Shl -> 4 | Shr -> 5 | Sar -> 7

let insn_into buf i =
  match i with
  | Mov_rm_r (d, s) ->
      byte buf 0x89;
      modrm buf ~reg_field:(Reg.encode s) d
  | Mov_r_rm (d, s) ->
      byte buf 0x8B;
      modrm buf ~reg_field:(Reg.encode d) s
  | Mov_r_imm (d, imm) ->
      byte buf (0xB8 + Reg.encode d);
      int32_le buf imm
  | Mov_rm_imm (d, imm) ->
      byte buf 0xC7;
      modrm buf ~reg_field:0 d;
      int32_le buf imm
  | Alu_rm_r (op, d, s) ->
      byte buf ((alu_digit op lsl 3) lor 0x01);
      modrm buf ~reg_field:(Reg.encode s) d
  | Alu_r_rm (op, d, s) ->
      byte buf ((alu_digit op lsl 3) lor 0x03);
      modrm buf ~reg_field:(Reg.encode d) s
  | Alu_rm_imm (op, d, imm) ->
      if fits_int8 imm then (
        byte buf 0x83;
        modrm buf ~reg_field:(alu_digit op) d;
        byte buf (Int32.to_int imm))
      else (
        byte buf 0x81;
        modrm buf ~reg_field:(alu_digit op) d;
        int32_le buf imm)
  | Test_rm_r (d, s) ->
      byte buf 0x85;
      modrm buf ~reg_field:(Reg.encode s) d
  | Lea (d, m) ->
      byte buf 0x8D;
      modrm buf ~reg_field:(Reg.encode d) (Mem m)
  | Inc_r r -> byte buf (0x40 + Reg.encode r)
  | Dec_r r -> byte buf (0x48 + Reg.encode r)
  | Neg o ->
      byte buf 0xF7;
      modrm buf ~reg_field:3 o
  | Not o ->
      byte buf 0xF7;
      modrm buf ~reg_field:2 o
  | Imul_r_rm (d, s) ->
      byte buf 0x0F;
      byte buf 0xAF;
      modrm buf ~reg_field:(Reg.encode d) s
  | Mul o ->
      byte buf 0xF7;
      modrm buf ~reg_field:4 o
  | Idiv o ->
      byte buf 0xF7;
      modrm buf ~reg_field:7 o
  | Cdq -> byte buf 0x99
  | Shift_imm (sh, o, n) ->
      if n < 0 || n > 31 then invalid_arg "Encode: shift count out of range";
      byte buf 0xC1;
      modrm buf ~reg_field:(shift_digit sh) o;
      byte buf n
  | Shift_cl (sh, o) ->
      byte buf 0xD3;
      modrm buf ~reg_field:(shift_digit sh) o
  | Push_r r -> byte buf (0x50 + Reg.encode r)
  | Push_imm imm ->
      byte buf 0x68;
      int32_le buf imm
  | Pop_r r -> byte buf (0x58 + Reg.encode r)
  | Ret -> byte buf 0xC3
  | Ret_imm n ->
      if n < 0 || n > 0xFFFF then invalid_arg "Encode: ret imm16 out of range";
      byte buf 0xC2;
      int16_le buf n
  | Call_rel d ->
      byte buf 0xE8;
      int32_le buf d
  | Call_rm o ->
      byte buf 0xFF;
      modrm buf ~reg_field:2 o
  | Jmp_rel d ->
      byte buf 0xE9;
      int32_le buf d
  | Jmp_rel8 d ->
      if d < -128 || d > 127 then invalid_arg "Encode: rel8 out of range";
      byte buf 0xEB;
      byte buf d
  | Jmp_rm o ->
      byte buf 0xFF;
      modrm buf ~reg_field:4 o
  | Jcc (c, d) ->
      byte buf 0x0F;
      byte buf (0x80 + Cond.encode c);
      int32_le buf d
  | Jcc8 (c, d) ->
      if d < -128 || d > 127 then invalid_arg "Encode: rel8 out of range";
      byte buf (0x70 + Cond.encode c);
      byte buf d
  | Setcc (c, r) ->
      byte buf 0x0F;
      byte buf (0x90 + Cond.encode c);
      byte buf (0b11000000 lor Reg.encode8 r)
  | Movzx_r_r8 (d, s) ->
      byte buf 0x0F;
      byte buf 0xB6;
      byte buf (0b11000000 lor (Reg.encode d lsl 3) lor Reg.encode8 s)
  | Xchg_rm_r (d, s) ->
      byte buf 0x87;
      modrm buf ~reg_field:(Reg.encode s) d
  | Int n ->
      if n < 0 || n > 0xFF then invalid_arg "Encode: int imm8 out of range";
      byte buf 0xCD;
      byte buf n
  | Nop -> byte buf 0x90
  | Hlt -> byte buf 0xF4

let insn i =
  let buf = Buffer.create 8 in
  insn_into buf i;
  Buffer.contents buf

let program insns =
  let buf = Buffer.create 256 in
  List.iter (insn_into buf) insns;
  Buffer.contents buf

let scratch = Buffer.create 16

let length i =
  Buffer.clear scratch;
  insn_into scratch i;
  Buffer.length scratch
