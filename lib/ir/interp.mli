(** Reference interpreter for IR modules.

    This is the ground-truth semantics of the system: the x86 backend is
    correct when the simulator's observable behaviour (return value and
    output) matches this interpreter's.  It is also the profiling oracle —
    it counts every basic-block execution and every CFG-edge traversal, so
    the profile machinery and the optimal-counter-placement reconstruction
    can be validated against exact counts.

    Memory model: one flat 32-bit byte-addressed space.  An
    {!argv_words}-word argument area sits at the fixed data base (the
    image's [__argv]), then globals in declaration order; stack slots are
    carved from a downward-growing stack at the top.  Word accesses must
    be 4-aligned.  This mirrors the machine backend's layout exactly —
    same global addresses, same bounds, same argv contents — so address
    arithmetic, and in particular which accesses trap, behaves
    identically (see the trap-parity notes in DESIGN.md).

    Execution model: each {!run} first compiles the module — every
    function to an array of blocks, every label to a block index, every
    callee to a function record or a builtin, every global and stack
    slot to its address — and every instruction and terminator to a
    closure over the frame's temps.  Temps and memory words are native
    [int]s in sign-extended 32-bit form; memory pages are allocated on
    first store.  Steps are counted and checked against the fuel one
    instruction (or terminator) at a time, never per block, so a trap —
    also one raised in a callee mid-block — fires after exactly the step
    a plain statement-by-statement reading of the IR reaches. *)

(** Execution counts.  They are kept in plain counters during the run
    and copied into these tables once, when it ends (normally or through
    [exit]); only non-zero counts appear, and the tables' iteration order
    is unspecified. *)
type counts = {
  blocks : (string * Ir.label, int64) Hashtbl.t;
      (** executions of each basic block, keyed by (function, label) *)
  edges : (string * Ir.label * Ir.label, int64) Hashtbl.t;
      (** traversals of each CFG edge *)
  calls : (string, int64) Hashtbl.t;  (** invocations per function *)
}

type result = {
  ret : int32;  (** return value of the entry function (or exit code) *)
  output : string;  (** everything written by print builtins *)
  steps : int64;  (** IR instructions + terminators executed *)
  counts : counts;
}

exception Trap of string
(** Runtime error: division by zero, out-of-bounds or unaligned access,
    unknown callee, call-stack overflow, or fuel exhaustion. *)

val argv_words : int
(** Words reserved for the argument area at the bottom of the data space
    — must equal [Libc.argv_words] (pinned by a test; psd_ir cannot
    depend on psd_link). *)

val run :
  ?fuel:int64 -> Ir.modul -> entry:string -> args:int32 list -> result
(** [run m ~entry ~args] executes [entry] with [args].  [fuel] bounds the
    step count (default [2^40]); exceeding it raises {!Trap}.  A [fuel]
    above [max_int] is clamped to [max_int] (in effect unbounded).
    The address space is 1 Mi words (4 MiB).
    Raises [Invalid_argument] if [args] exceeds {!argv_words} (the
    simulator rejects the same programs). *)
