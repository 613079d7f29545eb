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
    no branch's size depends on where its target lands.

    A concrete instruction carries its bytes from lowering on: {!ins}
    encodes it when the item is built, and every later stage —
    the diversity passes, {!assemble}, the linker — reuses those bytes.
    A pass that rewrites an instruction builds a new item through {!ins};
    a pass that moves items copies them whole.  NOP insertion adds
    insertions to a function and leaves its items alone (see {!func}),
    so a variant costs its inserted instructions and the displacements
    they shift, not a re-encoding or a re-layout of the function. *)

type ins = private {
  insn : Insn.t;
  code : string;  (** [Encode.insn insn], fixed when the item is built *)
}
(** A concrete instruction with its encoding.  The record is private:
    {!ins} is the only way to build one, so [code] is never stale. *)

type item =
  | Label of Ir.label  (** basic-block boundary marker (emits nothing) *)
  | Ins of ins  (** a concrete instruction, with its bytes *)
  | Jmp_sym of Ir.label  (** unconditional branch to a local block *)
  | Jcc_sym of Cond.t * Ir.label  (** conditional branch to a local block *)
  | Call_sym of string  (** call to a function symbol (reloc) *)
  | Mov_sym of Reg.t * string  (** load a global's absolute address (reloc) *)

val ins : Insn.t -> item
(** [ins i] is [Ins { insn = i; code = Encode.insn i }].  Raises
    [Invalid_argument] on an unencodable instruction, as [Encode.insn]
    does. *)

type reloc =
  | Rel32 of int * string  (** patch site offset (of the disp32 field), target function *)
  | Abs32 of int * string  (** patch site offset (of the imm32 field), target global *)

type assembled = {
  bytes : string;  (** encoded body; reloc fields still zero *)
  relocs : reloc list;  (** offsets relative to the function start *)
  label_offsets : (Ir.label * int) list;  (** block starts, function-relative *)
}

(** {2 Functions: a base plus insertions}

    A function is a base item list plus sorted insertions, each a
    concrete instruction placed right before one of the base's
    instructions (after any label that precedes it).  The base's flat
    {!layout} is computed once, on its first use, and kept with the
    base; a function with insertions shares its base, so a variant built
    by insertion costs its insertions and the positions they move.
    Since the kept layout is part of the value, compare functions by
    {!items}, not with [=]. *)

type func

val func : string -> item list -> func
(** [func name items] is a function without insertions. *)

val name : func -> string

val items : func -> item list
(** The full item list, insertions spliced in: for the passes that walk
    items (sched, regperm, subst, the budget planner), {!pp} and tests.
    A function without insertions returns its base list itself. *)

type layout = private {
  code : string;  (** the assembled bytes ({!assemble}'s) *)
  reloc_sites : int array;  (** each relocation's site, *)
  reloc_syms : string array;  (** its symbol *)
  reloc_abs : bool array;  (** and whether it is an [Abs32] *)
  offsets : int array;
      (** [offsets.(j)]: offset of instruction [j], the [j]th non-label
          item; [offsets.(n)] is the size *)
  block_starts : int array;
      (** block [b] is instructions [block_starts.(b)] to
          [block_starts.(b + 1) - 1]: block 0 is the unlabelled entry,
          block [b > 0] the one [labels.(b - 1)] starts, and the last
          entry is the instruction count *)
  labels : Ir.label array;  (** every label, in order *)
  label_at : int array;  (** [label_at.(k)]: offset of [labels.(k)] *)
  branch_sites : int array;  (** offset of each local branch's rel32 *)
  branch_targets : int array;
      (** index in [labels] of its target (a label's last definition) *)
}
(** A function's items laid out flat: what the NOP pass draws over and
    what {!assemble} splices. *)

val layout : func -> layout
(** The layout of the function's items.  For a function without
    insertions it is computed on first use and kept; for one with
    insertions it is that of its spliced items.  Raises [Failure] as
    {!assemble} does on a branch to an unknown label. *)

val insert : func -> int array -> item array -> func
(** [insert f at what] is {!layout}[ f]'s function plus the insertions
    [at] and [what]: each [what.(i)], a concrete instruction (an {!ins}
    item), goes right before instruction [at.(i)], in array order.
    Raises [Invalid_argument] unless the arrays have one length, the
    positions are non-decreasing and in [0, n) for the [n] instructions
    of the layout, and every item is an [Ins]. *)

val item_size : item -> int
(** Encoded size in bytes ([Label] is 0; an [Ins] is the length of its
    carried bytes). *)

val func_size : func -> int

val assemble : func -> assembled
(** Resolve local branches and lay out the bytes.  The base's layout is
    one walk over its items: each item's bytes are copied into place (an
    [Ins] its carried bytes, a symbolic item a fixed template with a
    zero field — no [Encode] call), label offsets are recorded as the
    walk reaches them, and local branches are back-patched once every
    label is known.  The function is then spliced onto that layout: the
    base bytes between insertion points are copied, with each
    insertion's bytes between them, and only the rel32 fields that the
    insertions moved are patched (a function without insertions keeps
    the layout's bytes).  The bytes are those of encoding every item of
    {!items} at its final offset, so their length is {!func_size} and
    [label_offsets] are the prefix sums of {!item_size}.  Raises
    [Failure] naming the label and the function on a branch to an
    unknown label. *)

val insns : func -> Insn.t list
(** Just the concrete instructions, in order (labels and symbolic items
    skipped) — for instruction-level statistics. *)

val pp : Format.formatter -> func -> unit
