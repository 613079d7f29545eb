(** Result types and the fault exception shared by the simulator's two
    implementations: the block-cached engine ({!Bsim}, behind
    {!Sim.run}) and the reference interpreter ({!Sim.Reference}, the
    differential oracle).  {!Sim} re-exports all of these with type
    equations, so client code never needs this module directly. *)

type exec_profile = {
  insn_counts : int64 array;
  nop_counts : int64 array;
  cycle_counts : float array;
}

type sample_profile = {
  period : float;
  sample_counts : int64 array;
  samples_taken : int64;
  sample_overhead_cycles : float;
}

val default_sample_period : int

type result = {
  status : int32;
  output : string;
  instructions : int64;
  nops_retired : int64;
  cycles : float;
  icache_misses : int64;
  exec_profile : exec_profile option;
  sample_profile : sample_profile option;
}

type outcome =
  | Finished of result
  | Faulted of { fault_msg : string; partial : result }
      (** The run trapped mid-flight; [partial] carries the machine
          counters (cycles, retired instructions, output so far) at the
          faulting instruction — what the trap-parity tests pin. *)

exception Fault of string

val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format a fault message, bump the [sim.faults] counter, and raise
    {!Fault}. *)

val finished : result -> outcome
(** [Finished r], after recording the completed run into {!Metrics}:
    counters [sim.runs], [sim.instructions], [sim.nops_retired] and
    [sim.icache_misses], and for a sampled run [sim.sampled_runs],
    [sim.samples] and the [sim.sample_overhead_pct] histogram.  Both
    engines end every completed run here, so they record identically;
    a faulted run records only [sim.faults] (see {!fault}). *)
