(** The NOP-insertion pass — Algorithm 1 of the paper, extended with the
    profile-guided probability of §3.1.

    Runs over the symbolic assembly stream (the lowered representation,
    after all optimizations and register allocation, immediately before
    layout — the stage the paper selects in §4).  For every instruction a
    Bernoulli trial with the current block's pNOP decides whether to
    prepend a NOP; on success one of the candidate NOPs (Table 1) is
    picked uniformly.  Two independent randomness sources, exactly as in
    §3.

    Block labels in the stream carry the profile attribution: the
    probability changes at each [Asm.Label] marker.  It is evaluated once
    per block, at the block's first instruction (the instructions before
    a function's first label form a block with label [None]); a block
    without instructions is never evaluated.  The probability is a pure
    function of the label, so this draws exactly as evaluating it at
    every instruction would: per instruction, one Bernoulli trial, then
    one candidate choice on success, and no draw at all for the trial
    when p <= 0 or p >= 1. *)

type stats = {
  insns_seen : int;  (** instructions eligible for a preceding NOP *)
  nops_inserted : int;
  bytes_added : int;
}

val zero : stats

val shift_label_base : int
(** Labels at or above this value mark the jumped-over dummy blocks the
    §6 basic-block-shifting extension inserts; they never collide with
    IR block labels. *)

val run :
  config:Config.t ->
  profile:Profile.t ->
  rng:Rng.t ->
  Asm.func ->
  Asm.func * stats
(** Diversify one function.  With [Config.Off] the function is returned
    unchanged.  The profile is consulted only for [Profiled] strategies;
    blocks absent from it count as cold ([pmax]). *)

val run_program :
  ?prob:(string -> Ir.label option -> float) ->
  config:Config.t ->
  profile:Profile.t ->
  rng:Rng.t ->
  Asm.func list ->
  Asm.func list * stats
(** Diversify all user functions with a shared program-wide [x_max] (the
    paper normalizes by the maximum execution count in the program).
    [prob] overrides the per-block probability entirely (the budgeted
    mode supplies the {!Budget} planner here); it receives the function
    name and the current block label, once per block.  Without it the strategy's
    uniform/profiled probability applies unchanged — and the RNG draw
    sequence is bit-identical to the pre-override implementation. *)
