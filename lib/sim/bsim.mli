(** The block-cached execution engine behind {!Sim.run} — the
    simulator's one production path.

    [.text] is pre-decoded once into a cache of per-offset entries — a
    compiled closure, the flattened {!Timing} cost, the NOP-candidacy
    and icache-line-start bits, precomputed icache line/tag pairs and
    the byte length of the fall-through run starting there — seeded
    from the image's block-offset tables and swept over every remaining
    offset (so {!Sim.run_at} gadget entries are covered).  Caches are
    keyed on (text digest, timing model) and kept in a small
    process-wide LRU, so population grids and the PGO loop decode each
    image once.  Runs use {!Timing.default}.

    Execution goes a run at a time.  A run starts at the entry offset
    and ends at its first control-flow instruction (inclusive), or at
    the last decodable instruction before an undecodable offset or the
    end of text.  The fetch-bounds and decodability faults are raised at
    run entry; within the run the counters live in locals and go back to
    the machine state at the run's end and before any fault propagates.
    A non-first instruction of a run probes the icache for its first
    byte only when that byte starts a line — otherwise the line was just
    probed for the previous instruction's last byte, so the probe would
    hit.  A finished run's data space is zeroed and reused by the next
    run instead of being reallocated.

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
(** The cache's decode memo — one [(insn, length)] per decodable text
    offset.  {!Sim.Reference} borrows this array instead of rebuilding a
    per-run memo; physical equality across calls witnesses the
    decode-once guarantee. *)

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
