(** Instruction selection: IR to machine IR.

    Each IR temp becomes the virtual register with the same number; fresh
    virtual registers are allocated above [Ir.func.next_temp] for
    intermediates.  Blocks and labels are preserved one-to-one, so
    per-basic-block profile counts remain valid on the machine IR.

    Incoming parameters are loaded from the caller's frame into their
    virtual registers at function entry. *)

val func : Ir.func -> Mir.func
