(** The runtime library, as fixed machine code.

    These functions play the role of the C library and crt0 in the paper's
    binaries: they are linked into every program, are {e never}
    diversified, and are placed at fixed offsets at the front of the
    [.text] section.  The paper attributes the ~40 gadgets that survive in
    half of all diversified versions exactly to such undiversified library
    objects; keeping ours fixed reproduces that floor.

    Syscall convention (executed via [INT 0x80], handled by the
    simulator): EAX=1 — exit with status EBX; EAX=4 — write the low byte
    of EBX to stdout. *)

val start_symbol : string
(** "_start": the process entry point.  Loads [main]'s arguments from the
    [__argv] global array (populated by the simulator before execution),
    calls [main], and exits with its return value. *)

val argv_symbol : string
(** "__argv": the global array _start reads arguments from. *)

val argv_words : int
(** Capacity of [__argv] (maximum supported arity of [main]). *)

val start : main:string -> main_arity:int -> Asm.func
(** Build the crt0 entry stub for a program whose [main] takes
    [main_arity] arguments.  Raises [Invalid_argument] if the arity
    exceeds {!argv_words}. *)

val funcs : Asm.func list
(** The library functions, in their fixed link order: [print_int],
    [put_char], [exit], and the word-wise utility routines ([wmemcpy],
    [wmemset], [wmemcmp], [wsum], [labs_], [lmin], [lmax]) that real
    binaries drag in and that contribute the surviving-gadget floor. *)
