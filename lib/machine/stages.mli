(** The machine-level lowering pipeline as explicit, instrumented stages.

    Instruction selection, liveness analysis, register allocation and
    expansion to symbolic assembly, each stage timed and recorded into
    the compilation context, under the ["machine"] stage label:

    - ["isel"]: IR size in, MIR size out;
    - ["liveness"]: MIR size (no rewrite);
    - ["regalloc"]: spill count reported as the size delta;
    - ["emit"]: MIR size in, assembly-item count out, with the encoded
      byte size of the function in the [bytes] field.

    The staged driver ({!Driver.compile}) lowers every function through
    this module.  Each stage run also bumps a process-wide
    [machine.<stage>.runs] counter in {!Metrics} — the counters the
    artifact store's warm-rebuild guarantees are asserted on. *)

val func : cctx:Cctx.t -> Ir.func -> Asm.func
(** Lower one optimized IR function to symbolic assembly. *)
