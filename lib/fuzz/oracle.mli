(** Multi-oracle differential harness.

    Runs one MiniC program under every oracle in the equivalence lattice
    (interp ⊑ sim ⊑ block-sim ⊑ diversified — see DESIGN.md) at every
    requested optimization level, and checks:

    - at a fixed level, the interpreter, the baseline binary under the
      simulator, and every diversified binary observe the same behaviour
      (return value, printed output, trap/no-trap);
    - every machine image (baseline and diversified) executes under the
      fetch-decode interpreter and the block-cached engine with the
      exec-profile hook on, which must agree on the full observable
      tuple ({!engine_mismatch}), and under the block engine with every
      hook off (the path behind {!Sim.run}), which must agree with the
      hooked block run minus its execution profile.  Engine
      disagreement is always a divergence, never a skip;
    - across levels, halting behaviours agree (optimization may delete
      dead trapping code, so a trap on one level against a halt on
      another is allowed);
    - on every halting interpreter run, block counts reconstructed from
      spanning-tree edge counters equal the interpreter's exact counts.

    Documented asymmetries are {e skips}, not divergences: a one-sided
    {!constructor:Resource} trap (the interpreter budgets IR steps and
    call frames, the simulator instructions and stack bytes — the limits
    cannot coincide), and differing trap classes when both sides trap
    (runaway recursion is a call-depth trap in the interpreter but a
    stack-memory fault in the machine). *)

type trap_class = Div | Mem | Resource | Other

val trap_class_name : trap_class -> string

val classify : string -> trap_class
(** Classify a trap/fault message from {!Interp.Trap} or {!Sim.Fault}. *)

type outcome =
  | Halted of { ret : int32; output : string }
  | Trapped of { cls : trap_class; msg : string }

val outcome_to_string : outcome -> string

type divergence = {
  left : string;  (** oracle label, e.g. ["interp\@O2"] *)
  right : string;  (** e.g. ["sim\@O2/p10-50/v1"] *)
  left_outcome : outcome;
  right_outcome : outcome;
  detail : string;
}

type report = {
  program : Gen.t;
  runs : int;  (** executions actually performed *)
  skips : (string * string) list;  (** (oracle pair, documented reason) *)
  divergence : divergence option;  (** the first divergence, if any *)
}

val engine_mismatch : Sim.outcome -> Sim.outcome -> string option
(** The engine-parity rule: [None] when two runs of the same image agree
    on the full observable tuple — status, output, retired instructions
    and NOPs, icache misses, cycles bit for bit, the execution profile
    and the sample profile (element-wise, floats bit for bit), and on a
    fault the fault message and every partial counter.  Otherwise
    [Some m], where [m] begins with the first differing field:
    ["status"], ["output"], ["instructions"], ["nops_retired"],
    ["icache_misses"], ["cycles"], ["exec_profile..."],
    ["sample_profile..."], ["fault_msg"], ["partial <field>"] or
    ["outcome"] (one run finished, the other faulted). *)

val default_configs : (string * Config.t) list
(** The default config lattice: the five paper NOP configs, each divpass
    transform in isolation (["off+sched"], ["off+subst"],
    ["off+regperm"] — the [off] base keeps NOP insertion out, so a
    divergence is attributable to the one transform), and the budgeted
    everything-on cell ["p0-30+sched+regperm+subst+b1"], which exercises
    the planner path. *)

val check :
  ?levels:Pipeline.level list ->
  ?configs:(string * Config.t) list ->
  ?versions:int ->
  Gen.t ->
  report
(** Run the full oracle matrix over one program: [levels] (default
    O0/O1/O2) × (interpreter + baseline + [configs] (default
    {!default_configs}) × [versions] (default 3) diversified builds).
    Stops at the first divergence.  Deterministic: the diversification
    streams are derived from (config seed, program name, config name,
    version), never from ambient state. *)

val level_name : Pipeline.level -> string
