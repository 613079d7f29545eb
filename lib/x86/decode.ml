open Insn

(* ------------------------------------------------------------------ *)
(* The opcode table.

   One entry per opcode byte packs what the bytes after it must look
   like: the effect class (low two bits), the immediate bytes after the
   opcode or ModRM, whether a ModRM byte follows, which /digit values
   are valid, and the operand rule (LEA wants memory; SETcc and MOVZX
   want one of the four byte registers; a shift count must be below 32).
   [classify] reads an offset's length and class from it without
   building an instruction; [insn] builds the instruction with its own
   checks, and the tests hold the two against each other. *)

let undecodable = 0
let ordinary = 1
let free_branch = 2
let breaks_gadget = 3
let length_of s = s lsr 2
let class_of s = s land 3

let has_modrm = 1 lsl 6
let mem_only = 1 lsl 7
let reg8_only = 1 lsl 8
let shift_count = 1 lsl 9
let escape = 1 lsl 10
let digits_shift = 11
let any_digit = 0xFF

let shape ?(modrm = false) ?(digits = any_digit) ?(rule = 0) ?(imm = 0) cls =
  cls lor (imm lsl 2)
  lor (if modrm then has_modrm else 0)
  lor rule lor (digits lsl digits_shift)

let digit_mask = List.fold_left (fun m d -> m lor (1 lsl d)) 0

(* [primary] is indexed by the first byte, [secondary] by the byte after
   the 0F escape; 0 is undecodable. *)
let primary, secondary =
  let p = Array.make 256 0 and s = Array.make 256 0 in
  let range t lo hi v = for op = lo to hi do t.(op) <- v done in
  let shifts = digit_mask [ 4; 5; 7 ] in
  for row = 0 to 7 do
    (* The ALU matrix: column 1 is r/m,r and column 3 is r,r/m. *)
    p.((row lsl 3) lor 1) <- shape ~modrm:true ordinary;
    p.((row lsl 3) lor 3) <- shape ~modrm:true ordinary
  done;
  p.(0x0F) <- escape;
  range p 0x40 0x5F (shape ordinary);
  p.(0x68) <- shape ~imm:4 ordinary;
  range p 0x70 0x7F (shape ~imm:1 breaks_gadget);
  p.(0x81) <- shape ~modrm:true ~imm:4 ordinary;
  p.(0x83) <- shape ~modrm:true ~imm:1 ordinary;
  List.iter (fun op -> p.(op) <- shape ~modrm:true ordinary) [ 0x85; 0x87; 0x89; 0x8B ];
  p.(0x8D) <- shape ~modrm:true ~rule:mem_only ordinary;
  p.(0x90) <- shape ordinary;
  p.(0x99) <- shape ordinary;
  range p 0xB8 0xBF (shape ~imm:4 ordinary);
  p.(0xC1) <- shape ~modrm:true ~digits:shifts ~rule:shift_count ~imm:1 ordinary;
  p.(0xC2) <- shape ~imm:2 free_branch;
  p.(0xC3) <- shape free_branch;
  p.(0xC7) <- shape ~modrm:true ~digits:(digit_mask [ 0 ]) ~imm:4 ordinary;
  (* A software interrupt falls through: "int 0x80; ret" is a gadget. *)
  p.(0xCD) <- shape ~imm:1 ordinary;
  p.(0xD3) <- shape ~modrm:true ~digits:shifts ordinary;
  p.(0xE8) <- shape ~imm:4 breaks_gadget;
  p.(0xE9) <- shape ~imm:4 breaks_gadget;
  p.(0xEB) <- shape ~imm:1 breaks_gadget;
  p.(0xF4) <- shape breaks_gadget;
  p.(0xF7) <- shape ~modrm:true ~digits:(digit_mask [ 2; 3; 4; 7 ]) ordinary;
  p.(0xFF) <- shape ~modrm:true ~digits:(digit_mask [ 2; 4 ]) free_branch;
  range s 0x80 0x8F (shape ~imm:4 breaks_gadget);
  range s 0x90 0x9F (shape ~modrm:true ~rule:reg8_only ordinary);
  s.(0xAF) <- shape ~modrm:true ordinary;
  s.(0xB6) <- shape ~modrm:true ~rule:reg8_only ordinary;
  (p, s)

let[@inline] byte bytes pos = Char.code (String.unsafe_get bytes pos)

(* The offset just past the ModRM byte at [p] and its SIB and
   displacement, or -1 if the ModRM byte is missing or breaks the
   opcode's digit or operand rule.  Bytes past [n] are caught by the
   caller's final bound. *)
let modrm_end bytes n s p =
  if p >= n then -1
  else
    let m = byte bytes p in
    let md = m lsr 6 and rm = m land 7 in
    if (s lsr digits_shift) land (1 lsl ((m lsr 3) land 7)) = 0 then -1
    else if md = 3 then
      if s land mem_only <> 0 || (s land reg8_only <> 0 && rm > 3) then -1
      else p + 1
    else if s land reg8_only <> 0 then -1
    else
      let disp base_less = if md = 1 then 1 else if md = 2 || base_less then 4 else 0 in
      if rm = 4 then
        if p + 1 >= n then -1
        else p + 2 + disp (md = 0 && byte bytes (p + 1) land 7 = 5)
      else p + 1 + disp (md = 0 && rm = 5)

(* [s] is the shape of the opcode at [start]; its operands begin at [p]. *)
let operands bytes n start s p =
  if class_of s = undecodable then 0
  else
    let p = if s land has_modrm = 0 then p else modrm_end bytes n s p in
    let stop = p + ((s lsr 2) land 15) in
    if p < 0 || stop > n then 0
    else if s land shift_count <> 0 && byte bytes p > 31 then 0
    else ((stop - start) lsl 2) lor class_of s

let classify bytes pos =
  let n = String.length bytes in
  if pos < 0 || pos >= n then 0
  else
    let s = Array.unsafe_get primary (byte bytes pos) in
    if s land escape = 0 then operands bytes n pos s (pos + 1)
    else if pos + 1 >= n then 0
    else operands bytes n pos (Array.unsafe_get secondary (byte bytes (pos + 1))) (pos + 2)

(* ------------------------------------------------------------------ *)
(* Building the instruction.  The builder checks every rule and
   measures the length on its own, without the table, so a table that
   rejects or accepts too much disagrees with it. *)

type cursor = { bytes : string; mutable pos : int }

exception Invalid

let u8 c =
  let b = Char.code c.bytes.[c.pos] in
  c.pos <- c.pos + 1;
  b

let i8 c =
  let b = u8 c in
  if b >= 128 then b - 256 else b

let u16 c =
  let lo = u8 c in
  (u8 c lsl 8) lor lo

let i32 c =
  let b0 = u8 c in
  let b1 = u8 c in
  let b2 = u8 c in
  let b3 = u8 c in
  Int32.logor
    (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
    (Int32.shift_left (Int32.of_int b3) 24)

let scale_of_bits = function
  | 0 -> S1
  | 1 -> S2
  | 2 -> S4
  | _ -> S8

(* Decode a ModRM byte (and any SIB/displacement).  Returns the reg/digit
   field and the r/m operand. *)
let modrm c =
  let b = u8 c in
  let md = b lsr 6 and reg = (b lsr 3) land 7 and rm = b land 7 in
  if md = 0b11 then (reg, Reg (Reg.decode rm))
  else
    let base, index =
      if rm = 0b100 then
        (* SIB byte follows. *)
        let s = u8 c in
        let sc = s lsr 6 and idx = (s lsr 3) land 7 and bse = s land 7 in
        let index =
          if idx = 0b100 then None else Some (Reg.decode idx, scale_of_bits sc)
        in
        if bse = 0b101 && md = 0b00 then (None, index)
        else (Some (Reg.decode bse), index)
      else if md = 0b00 && rm = 0b101 then (None, None)
      else (Some (Reg.decode rm), None)
    in
    let disp =
      match md with
      | 0b01 -> Int32.of_int (i8 c)
      | 0b10 -> i32 c
      | _ ->
          (* mod=00: no displacement unless the operand is the
             absolute/base-less form, which carries disp32. *)
          if base = None then i32 c else 0l
    in
    (reg, Mem { base; index; disp })

(* Opcodes 01..3B: the ALU matrix.  Row = operation, column 1 = rm,r and
   column 3 = r,rm. *)
let alu_of_row = function
  | 0 -> Add
  | 1 -> Or
  | 2 -> Adc
  | 3 -> Sbb
  | 4 -> And
  | 5 -> Sub
  | 6 -> Xor
  | _ -> Cmp

let shift_of_digit = function
  | 4 -> Shl
  | 5 -> Shr
  | 7 -> Sar
  | _ -> raise Invalid

(* The register form of a byte-register ModRM: mod must be 11. *)
let reg8 b =
  match Reg.decode8 (b land 7) with
  | Some r when b lsr 6 = 0b11 -> r
  | _ -> raise Invalid

let decode_0f c =
  let op2 = u8 c in
  if op2 >= 0x80 && op2 <= 0x8F then Jcc (Cond.decode (op2 - 0x80), i32 c)
  else if op2 >= 0x90 && op2 <= 0x9F then
    Setcc (Cond.decode (op2 - 0x90), reg8 (u8 c))
  else if op2 = 0xAF then
    let reg, rm = modrm c in
    Imul_r_rm (Reg.decode reg, rm)
  else if op2 = 0xB6 then
    let b = u8 c in
    Movzx_r_r8 (Reg.decode ((b lsr 3) land 7), reg8 b)
  else raise Invalid

let decode_one c =
  let op = u8 c in
  match op with
  | 0x0F -> decode_0f c
  | _ when op land 0xC7 = 0x01 && op <= 0x39 ->
      (* 01/09/11/19/21/29/31/39: ALU r/m, r *)
      let reg, rm = modrm c in
      Alu_rm_r (alu_of_row (op lsr 3), rm, Reg.decode reg)
  | _ when op land 0xC7 = 0x03 && op <= 0x3B ->
      let reg, rm = modrm c in
      Alu_r_rm (alu_of_row (op lsr 3), Reg.decode reg, rm)
  | _ when op >= 0x40 && op <= 0x47 -> Inc_r (Reg.decode (op - 0x40))
  | _ when op >= 0x48 && op <= 0x4F -> Dec_r (Reg.decode (op - 0x48))
  | _ when op >= 0x50 && op <= 0x57 -> Push_r (Reg.decode (op - 0x50))
  | _ when op >= 0x58 && op <= 0x5F -> Pop_r (Reg.decode (op - 0x58))
  | 0x68 -> Push_imm (i32 c)
  | _ when op >= 0x70 && op <= 0x7F -> Jcc8 (Cond.decode (op - 0x70), i8 c)
  | 0x81 ->
      let digit, rm = modrm c in
      Alu_rm_imm (alu_of_row digit, rm, i32 c)
  | 0x83 ->
      let digit, rm = modrm c in
      Alu_rm_imm (alu_of_row digit, rm, Int32.of_int (i8 c))
  | 0x85 ->
      let reg, rm = modrm c in
      Test_rm_r (rm, Reg.decode reg)
  | 0x87 ->
      let reg, rm = modrm c in
      Xchg_rm_r (rm, Reg.decode reg)
  | 0x89 ->
      let reg, rm = modrm c in
      Mov_rm_r (rm, Reg.decode reg)
  | 0x8B ->
      let reg, rm = modrm c in
      Mov_r_rm (Reg.decode reg, rm)
  | 0x8D -> (
      let reg, rm = modrm c in
      (* LEA requires a memory operand. *)
      match rm with Mem m -> Lea (Reg.decode reg, m) | Reg _ -> raise Invalid)
  | 0x90 -> Nop
  | 0x99 -> Cdq
  | _ when op >= 0xB8 && op <= 0xBF -> Mov_r_imm (Reg.decode (op - 0xB8), i32 c)
  | 0xC1 ->
      let digit, rm = modrm c in
      let sh = shift_of_digit digit in
      let n = u8 c in
      if n > 31 then raise Invalid else Shift_imm (sh, rm, n)
  | 0xC2 -> Ret_imm (u16 c)
  | 0xC3 -> Ret
  | 0xC7 ->
      let digit, rm = modrm c in
      if digit <> 0 then raise Invalid else Mov_rm_imm (rm, i32 c)
  | 0xCD -> Int (u8 c)
  | 0xD3 ->
      let digit, rm = modrm c in
      Shift_cl (shift_of_digit digit, rm)
  | 0xE8 -> Call_rel (i32 c)
  | 0xE9 -> Jmp_rel (i32 c)
  | 0xEB -> Jmp_rel8 (i8 c)
  | 0xF4 -> Hlt
  | 0xF7 -> (
      let digit, rm = modrm c in
      match digit with
      | 2 -> Not rm
      | 3 -> Neg rm
      | 4 -> Mul rm
      | 7 -> Idiv rm
      | _ -> raise Invalid)
  | 0xFF -> (
      let digit, rm = modrm c in
      match digit with
      | 2 -> Call_rm rm
      | 4 -> Jmp_rm rm
      | _ -> raise Invalid)
  | _ -> raise Invalid

let insn ?(pos = 0) bytes =
  let c = { bytes; pos } in
  match decode_one c with
  | i -> Some (i, c.pos - pos)
  | exception (Invalid | Invalid_argument _) -> None

let sequence ?(pos = 0) ?max bytes =
  let rec loop pos n acc =
    let stop = match max with Some m -> n >= m | None -> false in
    if stop || pos >= String.length bytes then List.rev acc
    else
      match insn ~pos bytes with
      | None -> List.rev acc
      | Some (i, len) -> loop (pos + len) (n + 1) ((i, pos) :: acc)
  in
  loop pos 0 []

let all bytes = List.map (fun (i, off) -> (off, i)) (sequence bytes)

let pp_listing ppf bytes =
  let n = String.length bytes in
  let rec loop pos =
    if pos < n then
      match insn ~pos bytes with
      | Some (i, len) ->
          let hex = String.sub bytes pos len in
          let hex =
            String.concat " "
              (List.init len (fun k -> Printf.sprintf "%02x" (Char.code hex.[k])))
          in
          Format.fprintf ppf "%6x  %-24s %a@." pos hex Insn.pp i;
          loop (pos + len)
      | None ->
          Format.fprintf ppf "%6x  %02x (bad)@." pos (Char.code bytes.[pos]);
          loop (pos + 1)
  in
  loop 0
