(** The block-cached execution engine behind {!Sim.run} — the
    simulator's one production path.

    The first time a text offset executes, its instruction is compiled
    into a step: a closure with the offset's static facts built in (the
    operation, with the hot operand shapes inline; the flattened
    {!Timing} cost; NOP candidacy; which icache probes it makes) that
    retires the instruction and tail-calls the step of the instruction
    after it.  Offsets that never execute get no closure.  Steps live in
    a cache keyed on (text digest, timing model), kept in a small
    process-wide LRU, so population grids and the PGO loop build each
    step once.  Runs use {!Timing.default}.

    Execution goes a run at a time.  A run starts at an entry offset and
    ends at its first control-flow instruction (inclusive), or at the
    last decodable instruction before an undecodable offset or the end
    of text; runs entered at different offsets share their common
    suffix.  A run's entry checks the fuel once for the whole run; a run
    that does not fit executes the instructions that do and then traps.
    A run closed by [jcc], [jmp rel] or [call rel] tail-calls the entry
    of its successor run directly; every other transfer goes back to a
    dispatch loop, which makes the fetch-bounds and decodability checks.
    Runs with the profile or sample hooks on use a second family of
    steps with the hooks built in, so hook-free steps test for none.
    Every step updates the retired, NOP, miss and cycle counters in the
    machine state itself, so the partial counters of a faulting run are
    exact.

    Every observable — cycles (bit for bit: float additions happen in
    the interpreter's exact order), fault messages and the retired
    counts at the faulting instruction, [exec_profile] and
    [sample_profile] arrays — is byte-identical to {!Sim.Reference}.
    Use {!Sim.run} rather than this module directly; it owns argument
    validation. *)

type cache

val cache_for : Link.image -> Timing.model -> cache
(** The (possibly shared) block cache for an image under a timing
    model.  Cheap on a cache hit: a text digest plus a table lookup. *)

val decoded : cache -> (Insn.t * int) option array
(** The cache's decode memo — [(insn, length)] at each decodable text
    offset decoded so far, filled on demand.  {!Sim.Reference} borrows
    this array instead of rebuilding a per-run memo; physical equality
    across calls witnesses the decode-once guarantee. *)

val run_outcome :
  fuel:int64 ->
  ?profile:bool ->
  ?sample_period:int ->
  Link.image ->
  args:int32 list ->
  Simcore.outcome
(** Execute from the entry stub.  Arguments must already be validated
    ({!Sim.run} does this). *)

val run_at_outcome :
  fuel:int64 ->
  ?stack_image:int32 list ->
  Link.image ->
  start_offset:int ->
  Simcore.outcome
(** Execute from an arbitrary text offset with an optional stack image
    (the ROP entry point; see {!Sim.run_at}). *)
