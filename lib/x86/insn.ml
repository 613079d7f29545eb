type scale = S1 | S2 | S4 | S8 [@@deriving eq, ord, show]

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int32;
}
[@@deriving eq, ord, show]

type operand = Reg of Reg.t | Mem of mem [@@deriving eq, ord, show]

type alu = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp
[@@deriving eq, ord, show]

type shift = Shl | Shr | Sar [@@deriving eq, ord, show]

type t =
  | Mov_rm_r of operand * Reg.t
  | Mov_r_rm of Reg.t * operand
  | Mov_r_imm of Reg.t * int32
  | Mov_rm_imm of operand * int32
  | Alu_rm_r of alu * operand * Reg.t
  | Alu_r_rm of alu * Reg.t * operand
  | Alu_rm_imm of alu * operand * int32
  | Test_rm_r of operand * Reg.t
  | Lea of Reg.t * mem
  | Inc_r of Reg.t
  | Dec_r of Reg.t
  | Neg of operand
  | Not of operand
  | Imul_r_rm of Reg.t * operand
  | Mul of operand
  | Idiv of operand
  | Cdq
  | Shift_imm of shift * operand * int
  | Shift_cl of shift * operand
  | Push_r of Reg.t
  | Push_imm of int32
  | Pop_r of Reg.t
  | Ret
  | Ret_imm of int
  | Call_rel of int32
  | Call_rm of operand
  | Jmp_rel of int32
  | Jmp_rel8 of int
  | Jmp_rm of operand
  | Jcc of Cond.t * int32
  | Jcc8 of Cond.t * int
  | Setcc of Cond.t * Reg.r8
  | Movzx_r_r8 of Reg.t * Reg.r8
  | Xchg_rm_r of operand * Reg.t
  | Int of int
  | Nop
  | Hlt
[@@deriving eq, ord, show]

let mem_abs disp = { base = None; index = None; disp }
let mem_base ?(disp = 0l) base = { base = Some base; index = None; disp }

let mem_index ?(disp = 0l) ~base ~index scale =
  if Reg.equal index Reg.ESP then
    invalid_arg "Insn.mem_index: ESP cannot be an index register";
  { base = Some base; index = Some (index, scale); disp }

let is_free_branch = function
  | Ret | Ret_imm _ | Call_rm _ | Jmp_rm _ -> true
  | _ -> false

let is_control_flow = function
  | Ret | Ret_imm _ | Call_rel _ | Call_rm _ | Jmp_rel _ | Jmp_rel8 _
  | Jmp_rm _ | Jcc _ | Jcc8 _ | Int _ | Hlt ->
      true
  | _ -> false

let is_terminator = function
  | Ret | Ret_imm _ | Jmp_rel _ | Jmp_rel8 _ | Jmp_rm _ | Hlt -> true
  | _ -> false

(* One instruction per [to_string] text among those a gadget can hold:
   the register-register forms of the r,r/m direction ([8B /r] and the
   [03 /r] column) become their r/m,r twins ([89 /r], the [01 /r]
   column). *)
let canonical = function
  | Mov_r_rm (d, Reg s) -> Mov_rm_r (Reg d, s)
  | Alu_r_rm (op, d, Reg s) -> Alu_rm_r (op, Reg d, s)
  | i -> i

let alu_name = function
  | Add -> "add"
  | Or -> "or"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Sub -> "sub"
  | Xor -> "xor"
  | Cmp -> "cmp"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
let scale_int = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

let mem_to_string { base; index; disp } =
  let d =
    if disp <> 0l || (base = None && index = None) then Printf.sprintf "0x%lx" disp
    else ""
  in
  match (base, index) with
  | None, None -> d
  | Some b, None -> Printf.sprintf "%s(%%%s)" d (Reg.name b)
  | Some b, Some (i, s) ->
      Printf.sprintf "%s(%%%s,%%%s,%d)" d (Reg.name b) (Reg.name i) (scale_int s)
  | None, Some (i, s) -> Printf.sprintf "%s(,%%%s,%d)" d (Reg.name i) (scale_int s)

let operand_to_string = function
  | Reg r -> "%" ^ Reg.name r
  | Mem m -> mem_to_string m

let to_string insn =
  let p = Printf.sprintf in
  let rm = operand_to_string and mem = mem_to_string and r = Reg.name in
  match insn with
  | Mov_rm_r (d, s) -> p "mov %%%s, %s" (r s) (rm d)
  | Mov_r_rm (d, s) -> p "mov %s, %%%s" (rm s) (r d)
  | Mov_r_imm (d, i) -> p "mov $0x%lx, %%%s" i (r d)
  | Mov_rm_imm (d, i) -> p "movl $0x%lx, %s" i (rm d)
  | Alu_rm_r (op, d, s) -> p "%s %%%s, %s" (alu_name op) (r s) (rm d)
  | Alu_r_rm (op, d, s) -> p "%s %s, %%%s" (alu_name op) (rm s) (r d)
  | Alu_rm_imm (op, d, i) -> p "%sl $0x%lx, %s" (alu_name op) i (rm d)
  | Test_rm_r (d, s) -> p "test %%%s, %s" (r s) (rm d)
  | Lea (d, m) -> p "lea %s, %%%s" (mem m) (r d)
  | Inc_r x -> "inc %" ^ r x
  | Dec_r x -> "dec %" ^ r x
  | Neg o -> "negl " ^ rm o
  | Not o -> "notl " ^ rm o
  | Imul_r_rm (d, s) -> p "imul %s, %%%s" (rm s) (r d)
  | Mul o -> "mull " ^ rm o
  | Idiv o -> "idivl " ^ rm o
  | Cdq -> "cdq"
  | Shift_imm (sh, o, n) -> p "%sl $%d, %s" (shift_name sh) n (rm o)
  | Shift_cl (sh, o) -> p "%sl %%cl, %s" (shift_name sh) (rm o)
  | Push_r x -> "push %" ^ r x
  | Push_imm i -> p "push $0x%lx" i
  | Pop_r x -> "pop %" ^ r x
  | Ret -> "ret"
  | Ret_imm n -> p "ret $%d" n
  | Call_rel d -> p "call .%+ld" d
  | Call_rm o -> "call *" ^ rm o
  | Jmp_rel d -> p "jmp .%+ld" d
  | Jmp_rel8 d -> p "jmp .%+d" d
  | Jmp_rm o -> "jmp *" ^ rm o
  | Jcc (c, d) -> p "j%s .%+ld" (Cond.name c) d
  | Jcc8 (c, d) -> p "j%s .%+d" (Cond.name c) d
  | Setcc (c, x) -> p "set%s %%%s" (Cond.name c) (Reg.name8 x)
  | Movzx_r_r8 (d, s) -> p "movzx %%%s, %%%s" (Reg.name8 s) (r d)
  | Xchg_rm_r (d, s) -> p "xchg %%%s, %s" (r s) (rm d)
  | Int n -> p "int $0x%x" n
  | Nop -> "nop"
  | Hlt -> "hlt"

(* One printer: the formatters print [to_string]'s text. *)
let pp_mem ppf m = Format.pp_print_string ppf (mem_to_string m)
let pp_operand ppf o = Format.pp_print_string ppf (operand_to_string o)
let pp ppf insn = Format.pp_print_string ppf (to_string insn)
