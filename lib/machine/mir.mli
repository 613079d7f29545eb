(** The machine IR ("LR" in the paper's terminology, Figure 3).

    Register-abstract x86: two-address arithmetic, explicit loads and
    stores, pseudo-instructions for the operations with fixed register
    constraints (division, calls), and fused compare-and-branch
    terminators.  Instruction selection produces it; the register
    allocator replaces virtual registers with physical registers or spill
    slots; {!Emit} expands each instruction into concrete x86.

    Blocks correspond one-to-one to IR blocks and keep their labels — this
    carries basic-block profile counts through to the NOP-insertion pass,
    which is the property the paper's §4 implementation relies on. *)

type reg = Virt of int | Phys of Reg.t [@@deriving eq, ord, show]

type mop = R of reg | I of int32 [@@deriving eq, ord, show]
(** Register-or-immediate operand. *)

type addr =
  | Areg of reg  (** \[reg\] — computed address *)
  | Aslot of int  (** source-level stack slot (local array) *)
  | Aparam of int  (** i-th incoming argument *)
[@@deriving eq, ord, show]

type alu = Aadd | Asub | Aand | Aor | Axor [@@deriving eq, ord, show]
type shift = Sshl | Sshr | Ssar [@@deriving eq, ord, show]

type minsn =
  | Mov of reg * mop
  | Load of reg * addr
  | Store of addr * mop
  | Alu of alu * reg * mop  (** dst := dst op src *)
  | Imul of reg * mop
  | Neg of reg
  | Not of reg
  | Shift of shift * reg * mop  (** count: immediate, or register (via CL) *)
  | Div of { dst : reg; dividend : mop; divisor : mop; want_rem : bool }
      (** signed division pseudo-op; expands to the EAX/EDX/IDIV dance *)
  | Set of Ir.relop * reg * mop * mop  (** dst := (a rel b) as 0/1 *)
  | Lea_slot of reg * int  (** dst := address of slot *)
  | Lea_global of reg * string  (** dst := address of global (relocated) *)
  | Call of { dst : reg option; callee : string; args : mop list }
[@@deriving eq, ord, show]

type mterm =
  | Tret of mop option
  | Tjmp of Ir.label
  | Tjcc of Ir.relop * mop * mop * Ir.label * Ir.label
      (** if (a rel b) goto first else second *)
[@@deriving eq, ord, show]

type block = {
  label : Ir.label;
  mutable insns : minsn list;
  mutable term : mterm;
}

type func = {
  name : string;
  n_params : int;
  mutable blocks : block list;
  slots : Ir.slot list;  (** source-level slots, from the IR function *)
  mutable next_virt : int;  (** virtual register counter *)
}

val defs : minsn -> reg list
(** Registers written by an instruction (virtual or physical). *)

val uses : minsn -> reg list
(** Registers read by an instruction. *)

val term_uses : mterm -> reg list

val successors : mterm -> Ir.label list
