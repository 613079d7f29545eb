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
    probability changes at each [Asm.Label] marker (the instructions
    before a function's first label form a block with label [None]).
    The probability is a pure function of the label, so it is evaluated once
    per block, as the block's {!Rng.threshold}, and the draws are exactly
    those of evaluating it at every instruction: per instruction, in
    order, one Bernoulli trial, then one candidate choice on success,
    and no draw at all for the trial when p <= 0 or p >= 1.  The trial
    is {!Rng.draw_below}, the integer compare [r53 < ceil (p * 2^53)],
    which decides as [Rng.bernoulli] does ([r53 / 2^53 < p]) without
    float arithmetic; a NaN p still draws and never inserts.

    Without a [prob] override and without basic-block shifting, a
    program's block thresholds are computed once per (profile,
    strategy, function list) and kept while the profile lives, so a
    variant of a warm program costs its draws and its insertions. *)

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

val run_program :
  ?prob:(string -> Ir.label option -> float) ->
  config:Config.t ->
  profile:Profile.t ->
  rng:Rng.t ->
  Asm.func list ->
  Asm.func list * stats
(** Diversify all user functions with a shared program-wide [x_max] (the
    paper normalizes by the maximum execution count in the program).
    With [Config.Off] the functions are returned unchanged.  The profile
    is consulted only for [Profiled] strategies; blocks absent from it
    count as cold ([pmax]).  Each result is its input plus its
    insertions ({!Asm.insert}), drawn over the input's {!Asm.layout}.
    [prob] overrides the per-block probability entirely (the budgeted
    mode supplies the {!Budget} planner here); it receives the function
    name and the current block label, once per block.  Without it the strategy's
    uniform/profiled probability applies unchanged — and the RNG draw
    sequence is bit-identical to the pre-override implementation. *)
