(** The machine-code CPU simulator.

    Decodes and executes the linked image's [.text] against a separate
    data address space (W⊕X by construction: instruction fetch reads only
    text, loads/stores reach only data, and an indirect branch into data
    traps).  Arithmetic flags are modeled precisely enough for every
    condition our code generator and library use.

    Syscalls ([INT 0x80]): EAX=1 exits with status EBX; EAX=4 writes the
    low byte of EBX to the output buffer.

    {!run} and its variants execute on the block-cached engine
    ({!Bsim}: decode-once/execute-many, flattened per-insn costs,
    native-int machine state) under {!Timing.default} — the one
    production path.  {!Reference} is the original fetch-decode-execute
    interpreter, kept only as the trusted differential oracle.  Their
    observables — cycles (bit for bit), fault messages, profiles, sampled
    recordings — are byte-identical; the equivalence suite and the fuzz
    oracle lattice enforce it.  The decode memo is owned by the shared
    block cache, so repeated runs of one image decode each offset once
    under either. *)

type exec_profile = Simcore.exec_profile = {
  insn_counts : int64 array;
      (** per text offset: instructions retired from that offset *)
  nop_counts : int64 array;
      (** per text offset: how many of those were Table-1 NOP candidates *)
  cycle_counts : float array;
      (** per text offset: modeled cycles charged there, icache miss
          penalties included *)
}
(** A runtime execution profile, indexed by text offset (the arrays have
    one slot per byte of [.text]; only instruction-start offsets are
    nonzero).  {!Simprof} maps it back through the image's layout symbols
    to per-function and per-block attributions. *)

type sample_profile = Simcore.sample_profile = {
  period : float;  (** cycles between samples, as configured *)
  sample_counts : int64 array;
      (** per text offset: PC samples attributed there *)
  samples_taken : int64;
  sample_overhead_cycles : float;
      (** modeled profiling cost: {!Timing.model.sample_cost} per sample,
          already included in the run's [cycles] *)
}
(** A cheap cycle-sampled runtime profile, the production-side
    counterpart of the exact {!exec_profile}: every [period]-th retired
    cycle records the current PC, exactly like a perf-style sampling
    interrupt.  {!Sprof} maps it back through the image layout to
    (function, block) rows, diversified binaries included. *)

val default_sample_period : int
(** The deployment default (1000 cycles): cheap enough to leave on in
    production (~1% modeled overhead), dense enough that one ref-input
    run recovers the hot set.  The CI perf gate pins the overhead at
    this period. *)

type result = Simcore.result = {
  status : int32;  (** exit status (main's return value) *)
  output : string;
  instructions : int64;  (** retired instructions *)
  nops_retired : int64;  (** how many were Table-1 NOP candidates *)
  cycles : float;  (** modeled time *)
  icache_misses : int64;
  exec_profile : exec_profile option;
      (** present iff the run was started with [~profile:true] *)
  sample_profile : sample_profile option;
      (** present iff the run was started with [~sample_period] *)
}

type outcome = Simcore.outcome =
  | Finished of result
  | Faulted of { fault_msg : string; partial : result }
      (** The run trapped; [partial] carries the machine counters at the
          faulting instruction (cycles, retired instructions, output so
          far) — both engines must agree on all of them, which the
          trap-parity tests pin. *)

exception Fault of string
(** Machine fault: undecodable bytes at EIP, data access out of bounds or
    unaligned, division error, control transfer outside text, stack
    overflow, or fuel exhaustion. *)

val run :
  ?fuel:int64 ->
  ?profile:bool ->
  ?sample_period:int ->
  Link.image ->
  args:int32 list ->
  result
(** Execute from the image's entry stub until the exit syscall.  [args]
    are written to the [__argv] array before execution (they are the
    arguments of [main]); at most {!Libc.argv_words} are allowed.
    Default [fuel] is [2^40] instructions.  [profile] (default [false])
    collects a per-offset {!exec_profile}; the hook costs three array
    writes per retired instruction when on and one [option] test when
    off.  [sample_period] (off by default) additionally records a PC
    sample every that many retired cycles into a {!sample_profile},
    charging {!Timing.model.sample_cost} cycles per sample to the run —
    production-style profiling with a modeled overhead.  Raises
    [Invalid_argument] if [args] does not match [main]'s arity or
    [sample_period <= 0], and {!Fault} if the run traps. *)

val run_outcome :
  ?fuel:int64 ->
  ?profile:bool ->
  ?sample_period:int ->
  Link.image ->
  args:int32 list ->
  outcome
(** Like {!run}, but a trap returns [Faulted] carrying the partial
    counters at the faulting instruction instead of raising — the
    trap-parity tests compare these against {!Reference}.
    Successful-run metrics are recorded exactly as {!run} does; faulted
    runs bump only [sim.faults], matching {!run}'s behavior. *)

val run_at :
  ?fuel:int64 ->
  ?stack_image:int32 list ->
  Link.image ->
  start_offset:int ->
  result
(** Begin execution at an arbitrary text offset with an optional
    attacker-controlled stack image (values placed on the stack top,
    first element at ESP — the ROP-chain entry point used by the attack
    experiments).  Execution ends at the exit syscall, at [Hlt], or on a
    fault.  Raises [Invalid_argument] if [start_offset] is outside
    [.text]. *)

val run_at_outcome :
  ?fuel:int64 ->
  ?stack_image:int32 list ->
  Link.image ->
  start_offset:int ->
  outcome
(** {!run_at}, trap-as-value. *)

(** The reference fetch-decode-execute interpreter: the differential
    oracle the block engine is checked against (the fuzz oracle
    lattice, the engine-parity tests and the sim-speedup bench).  Same
    argument validation and defaults as {!run_outcome} and
    {!run_at_outcome}, same observables, roughly an order of magnitude
    slower. *)
module Reference : sig
  val run_outcome :
    ?fuel:int64 ->
    ?profile:bool ->
    ?sample_period:int ->
    Link.image ->
    args:int32 list ->
    outcome

  val run_at_outcome :
    ?fuel:int64 ->
    ?stack_image:int32 list ->
    Link.image ->
    start_offset:int ->
    outcome
end
