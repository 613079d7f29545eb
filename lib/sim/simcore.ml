(* Types and faults shared by the simulator's two implementations: the
   block-cached engine ([Bsim], the production path) and the reference
   interpreter ([Sim.Reference], kept as the differential oracle).  Both must produce these exact
   records byte for byte — the equivalence suite compares them field by
   field, cycles included. *)

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

let default_sample_period = 1000

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

exception Fault of string

let fault fmt =
  Format.kasprintf
    (fun s ->
      Metrics.incr (Metrics.counter "sim.faults");
      raise (Fault s))
    fmt

let finished (r : result) =
  Metrics.incr (Metrics.counter "sim.runs");
  Metrics.incr ~by:r.instructions (Metrics.counter "sim.instructions");
  Metrics.incr ~by:r.nops_retired (Metrics.counter "sim.nops_retired");
  Metrics.incr ~by:r.icache_misses (Metrics.counter "sim.icache_misses");
  (match r.sample_profile with
  | None -> ()
  | Some s ->
      Metrics.incr (Metrics.counter "sim.sampled_runs");
      Metrics.incr ~by:s.samples_taken (Metrics.counter "sim.samples");
      let base = r.cycles -. s.sample_overhead_cycles in
      if base > 0.0 then
        Metrics.observe
          (Metrics.histogram "sim.sample_overhead_pct")
          (100.0 *. s.sample_overhead_cycles /. base));
  Finished r
