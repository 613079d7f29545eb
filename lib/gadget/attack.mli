(** Attack construction against a gadget set (paper §5.2, PHP case study).

    The paper verifies diversification by running two independent gadget
    scanners against the target and asking whether the gadgets they find
    still provide the operations a real payload needs.  We reproduce that
    check with a semantic classifier: each gadget is sorted into the
    operation classes of the ROP virtual machine, and an attack is deemed
    feasible when every {e required} class is populated.

    Required classes for the canonical "write payload, then invoke the
    system" attack: load-constant (e.g. [pop r; ret]), memory-write
    (e.g. [mov \[r\], r'; ret]), arithmetic, and syscall
    ([int 0x80] reachable inside a gadget). *)

type gadget_class =
  | Load_const  (** pop into a register *)
  | Mem_read  (** load from memory into a register *)
  | Mem_write  (** store a register to memory *)
  | Arith  (** register arithmetic (add/sub/xor/...) *)
  | Move  (** register-to-register transfer *)
  | Stack_pivot  (** ESP manipulation *)
  | Syscall  (** reaches INT 0x80 *)
[@@deriving show]

val classify : Insn.t list -> gadget_class list
(** All classes a single gadget provides (possibly several; often
    none). *)

type scanner = Ropgadget | Microgadgets

val scanner_name : scanner -> string

val scan : scanner -> string -> Finder.t list
(** The two scanners of the paper: [Ropgadget] uses
    {!Finder.default_params} (8 instructions / 30 bytes); [Microgadgets]
    keeps only gadgets of at most 2–3 bytes total, which are far more
    numerous in ordinary code than long gadgets. *)

type verdict = {
  scanner : scanner;
  classes_found : (gadget_class * int) list;  (** class -> gadget count *)
  missing : gadget_class list;  (** required classes not found *)
  feasible : bool;
}

val required : gadget_class list

val attack : scanner -> string -> verdict
(** Scan a [.text] section and judge feasibility. *)

val attack_on_gadgets : scanner -> Finder.t list -> verdict
(** Judge feasibility of a pre-restricted gadget set (e.g. only the
    gadgets that survived diversification). *)
