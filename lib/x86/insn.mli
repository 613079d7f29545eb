(** The x86-32 machine language understood by this system.

    This is the set of instructions our code generator emits, our encoder
    serializes, our decoder recognizes, and our CPU simulator executes.  It
    is a self-consistent subset of IA-32: every instruction here has its
    real hardware encoding (verified by the test suite against the Intel
    SDM byte patterns quoted in the paper, e.g. [RET = C3],
    [MOV ESP,ESP = 89 E4]).

    Design note: relative branches carry their displacement (not a target
    label) because this layer sits *below* layout — the NOP-insertion pass
    of the paper operates on a machine IR with labels
    (see {!module:Psd_machine.Mir}) and displacement patching happens at
    emission. *)

type scale = S1 | S2 | S4 | S8 [@@deriving eq, ord, show]

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;  (** index register may not be ESP *)
  disp : int32;
}
[@@deriving eq, ord, show]
(** A memory operand [disp(base, index, scale)]. *)

type operand = Reg of Reg.t | Mem of mem [@@deriving eq, ord, show]
(** A ModRM "r/m" operand: register or memory. *)

(** ALU group operations, in hardware [/digit] order (the [reg] field of
    the [80]-[83] opcodes and the row of the [00]-[3B] opcode matrix). *)
type alu = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp
[@@deriving eq, ord, show]

type shift = Shl | Shr | Sar [@@deriving eq, ord, show]

type t =
  | Mov_rm_r of operand * Reg.t  (** [89 /r] — MOV r/m32, r32 *)
  | Mov_r_rm of Reg.t * operand  (** [8B /r] — MOV r32, r/m32 *)
  | Mov_r_imm of Reg.t * int32  (** [B8+rd id] — MOV r32, imm32 *)
  | Mov_rm_imm of operand * int32  (** [C7 /0 id] — MOV r/m32, imm32 *)
  | Alu_rm_r of alu * operand * Reg.t  (** [01/09/.../39 /r] *)
  | Alu_r_rm of alu * Reg.t * operand  (** [03/0B/.../3B /r] *)
  | Alu_rm_imm of alu * operand * int32  (** [81 /n id] or [83 /n ib] *)
  | Test_rm_r of operand * Reg.t  (** [85 /r] *)
  | Lea of Reg.t * mem  (** [8D /r] *)
  | Inc_r of Reg.t  (** [40+rd] *)
  | Dec_r of Reg.t  (** [48+rd] *)
  | Neg of operand  (** [F7 /3] *)
  | Not of operand  (** [F7 /2] *)
  | Imul_r_rm of Reg.t * operand  (** [0F AF /r] *)
  | Mul of operand  (** [F7 /4] — EDX:EAX <- EAX * r/m *)
  | Idiv of operand  (** [F7 /7] — signed divide EDX:EAX *)
  | Cdq  (** [99] — sign-extend EAX into EDX *)
  | Shift_imm of shift * operand * int  (** [C1 /n ib] *)
  | Shift_cl of shift * operand  (** [D3 /n] *)
  | Push_r of Reg.t  (** [50+rd] *)
  | Push_imm of int32  (** [68 id] *)
  | Pop_r of Reg.t  (** [58+rd] *)
  | Ret  (** [C3] *)
  | Ret_imm of int  (** [C2 iw] *)
  | Call_rel of int32  (** [E8 cd] — relative to next insn *)
  | Call_rm of operand  (** [FF /2] — indirect call *)
  | Jmp_rel of int32  (** [E9 cd] *)
  | Jmp_rel8 of int  (** [EB cb] *)
  | Jmp_rm of operand  (** [FF /4] — indirect jump *)
  | Jcc of Cond.t * int32  (** [0F 80+cc cd] *)
  | Jcc8 of Cond.t * int  (** [70+cc cb] *)
  | Setcc of Cond.t * Reg.r8  (** [0F 90+cc /r], register form *)
  | Movzx_r_r8 of Reg.t * Reg.r8  (** [0F B6 /r], register form *)
  | Xchg_rm_r of operand * Reg.t  (** [87 /r] *)
  | Int of int  (** [CD ib] — software interrupt *)
  | Nop  (** [90] *)
  | Hlt  (** [F4] *)
[@@deriving eq, ord, show]

val mem_abs : int32 -> mem
(** Absolute address [\[disp32\]]. *)

val mem_base : ?disp:int32 -> Reg.t -> mem
(** [\[base + disp\]]. *)

val mem_index : ?disp:int32 -> base:Reg.t -> index:Reg.t -> scale -> mem
(** [\[base + index*scale + disp\]].  Raises [Invalid_argument] if the
    index is ESP (unencodable). *)

val is_free_branch : t -> bool
(** The paper's "free branch": an instruction usable as the tail of a
    code-reuse gadget — returns, indirect calls and indirect jumps. *)

val is_control_flow : t -> bool
(** Any instruction that alters sequential control flow (branches, calls,
    returns, software interrupts, halt). *)

val is_terminator : t -> bool
(** Ends a basic block: unconditional transfers, returns, halt (but not
    calls, which fall through). *)

val canonical : t -> t
(** The one instruction of its {!to_string} text among the instructions
    a gadget can hold (free branches and everything that does not break a
    gadget; short and rel32 branches, which render alike, are left
    apart): for those, [canonical a = canonical b] exactly when
    [to_string a = to_string b].  Two encodings name the same
    register-register operation and fold into one: [MOV r32, r/m32]
    ([8B /r]) into [MOV r/m32, r32] ([89 /r]), and the ALU [r32, r/m32]
    column ([03/0B/.../3B /r]) into the [r/m32, r32] column
    ([01/09/.../39 /r]).  Every other instruction is its own canonical
    form. *)

val pp : Format.formatter -> t -> unit
(** AT&T-flavoured assembly-like rendering for diagnostics, e.g.
    [mov %esp, %esp], [lea 0x4(%esi), %edi]. *)

val to_string : t -> string
