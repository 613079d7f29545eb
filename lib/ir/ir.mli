(** The mid-level intermediate representation.

    A conventional three-address, CFG-based IR (not SSA): functions are
    lists of basic blocks; each block is a list of straight-line
    instructions ended by exactly one terminator.  Virtual registers
    ("temps") are function-local and may be redefined.  This is the level
    at which optimization and edge profiling happen — mirroring the role
    LLVM IR plays in the paper — before instruction selection lowers each
    block one-for-one into machine code.

    Memory model: scalars live in temps; addressable storage consists of
    named global word arrays and per-function stack slots.  Addresses are
    first-class 32-bit values produced by {!constructor:Global_addr} /
    {!constructor:Stack_addr} and ordinary arithmetic, consumed by
    {!constructor:Load} / {!constructor:Store} (word-sized, like the rest
    of the machine). *)

type temp = int [@@deriving eq, ord, show]
(** Virtual register, function-local, allocated by {!Builder}. *)

type label = int [@@deriving eq, ord, show]
(** Basic-block identifier, function-local. *)

type operand = Temp of temp | Const of int32 [@@deriving eq, ord, show]

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** signed; traps on zero divisor like the hardware *)
  | Rem  (** signed remainder *)
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** logical right shift *)
  | Sar  (** arithmetic right shift *)
[@@deriving eq, ord, show]

type relop = Eq | Ne | Lt | Le | Gt | Ge  (** signed comparisons *)
[@@deriving eq, ord, show]

type instr =
  | Bin of binop * temp * operand * operand  (** [t <- a op b] *)
  | Neg of temp * operand
  | Not of temp * operand  (** bitwise complement *)
  | Cmp of relop * temp * operand * operand  (** [t <- a rel b] as 0/1 *)
  | Copy of temp * operand
  | Load of temp * operand  (** [t <- mem\[addr\]] (word) *)
  | Store of operand * operand  (** [mem\[addr\] <- v] (word) *)
  | Global_addr of temp * string  (** address of a global array *)
  | Stack_addr of temp * int  (** address of stack slot [i] *)
  | Call of temp option * string * operand list
      (** call a function or builtin; result in the temp if any *)
[@@deriving eq, ord, show]

type terminator =
  | Ret of operand option
  | Jmp of label
  | Cbr of relop * operand * operand * label * label
      (** fused compare-and-branch: if [a rel b] then first else second *)
  | Cbr_nz of operand * label * label  (** branch if operand non-zero *)
[@@deriving eq, ord, show]

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
}

type slot = { slot_id : int; size_words : int }
(** A stack-allocated array of [size_words] 32-bit words. *)

type func = {
  name : string;
  params : temp list;  (** parameter temps, in order *)
  mutable blocks : block list;  (** entry block first *)
  mutable slots : slot list;
  mutable next_temp : int;
  mutable next_label : int;
}

type global = {
  gname : string;
  size_words : int;
  init : int32 array option;  (** [None] zero-initializes *)
}

type modul = { funcs : func list; globals : global list }

val def_temp : instr -> temp option
(** The temp defined by an instruction, if any. *)

val instr_uses : instr -> operand list
(** Operands read by an instruction. *)

val term_uses : terminator -> operand list

val has_side_effect : instr -> bool
(** Stores and calls; everything else is pure and removable when its
    result is unused. *)

val successors : terminator -> label list
(** Successor labels in branch order ([Cbr]: taken first). *)

val map_term_labels : (label -> label) -> terminator -> terminator

val find_block : func -> label -> block
(** Raises [Not_found] if no block carries the label. *)

val find_func : modul -> string -> func

val size : func -> int
(** Instruction count plus one per block terminator — the unit the
    per-pass size deltas are measured in. *)

val eval_binop : binop -> int32 -> int32 -> int32 option
(** Constant evaluation; [None] for division by zero (or
    [min_int / -1]) and for shift counts outside 0-31, which the
    optimizer must leave to runtime. *)

val eval_relop : relop -> int32 -> int32 -> bool

val binop_name : binop -> string
val relop_name : relop -> string
val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_term : Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit
