(** Expansion of register-allocated machine IR into symbolic assembly.

    Every MIR instruction expands to a short, self-contained x86 sequence.
    EAX, ECX and EDX are expansion scratch (never allocated), which makes
    memory-to-memory cases expressible without a second allocation pass.
    The frame layout is:

    {v
        [ebp + 8 + 4i]  incoming argument i
        [ebp + 4]       return address
        [ebp]           saved EBP
        [ebp - 4 .. ]   saved callee-saved registers (EBX/ESI/EDI, if used)
        ...             spill slots
        ...             source-level stack slots (local arrays)
    v}

    Calling convention: cdecl — arguments pushed right to left, caller
    cleans up, result in EAX. *)

val func : Mir.func -> Regalloc.assignment -> Asm.func
(** Expand one function, including prologue and epilogue. *)
