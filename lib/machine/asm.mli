(** Symbolic assembly: the final pre-layout program representation.

    A function is a flat list of items — concrete x86 instructions
    interleaved with basic-block label markers, unresolved intra-function
    branches, and relocatable references to symbols (calls, global
    addresses).  This is the exact stage of the paper's Figure 3 where NOP
    insertion happens: instructions are final machine instructions, but
    branch displacements are not yet fixed, so inserted bytes displace all
    following code for free.

    All unresolved branches use fixed-size encodings ([JMP rel32 = 5]
    bytes, [Jcc rel32 = 6], [CALL rel32 = 5], [MOV r32,imm32 = 5]), so
    no branch's size depends on where its target lands. *)

type item =
  | Label of Ir.label  (** basic-block boundary marker (emits nothing) *)
  | Ins of Insn.t  (** a concrete instruction *)
  | Jmp_sym of Ir.label  (** unconditional branch to a local block *)
  | Jcc_sym of Cond.t * Ir.label  (** conditional branch to a local block *)
  | Call_sym of string  (** call to a function symbol (reloc) *)
  | Mov_sym of Reg.t * string  (** load a global's absolute address (reloc) *)

type func = { name : string; items : item list }

type reloc =
  | Rel32 of int * string  (** patch site offset (of the disp32 field), target function *)
  | Abs32 of int * string  (** patch site offset (of the imm32 field), target global *)

type assembled = {
  bytes : string;  (** encoded body; reloc fields still zero *)
  relocs : reloc list;  (** offsets relative to the function start *)
  label_offsets : (Ir.label * int) list;  (** block starts, function-relative *)
}

val item_size : item -> int
(** Encoded size in bytes ([Label] is 0). *)

val func_size : func -> int

val assemble : func -> assembled
(** Resolve local branches and lay out the bytes, in one pass over the
    items: each item is encoded once, label offsets are recorded as they
    are reached, and local branches are back-patched once every label is
    known.  The bytes are those of encoding every item at its final
    offset, so their length is {!func_size} and [label_offsets] are the
    prefix sums of {!item_size}.  Raises [Failure] naming the label and
    the function on a branch to an unknown label. *)

val insns : func -> Insn.t list
(** Just the concrete instructions, in order (labels and symbolic items
    skipped) — for instruction-level statistics. *)

val pp : Format.formatter -> func -> unit
