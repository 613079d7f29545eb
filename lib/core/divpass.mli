(** The diversity-pass framework: a registry of seeded, per-function
    transforms over the pre-emission {!Asm} stream.

    The paper's diversifier is one transform — NOP insertion.  This
    registry generalizes it into a portfolio (the multicompiler line):
    intra-block instruction-scheduling randomization ([sched]),
    register-assignment permutation ([regperm]), equivalent-instruction
    substitution ([subst]) and NOP insertion ([nop]), each togglable
    through {!Config.passes} (spelled as {!Config.of_spec} suffixes).

    {b Seeding.}  Every pass draws from its own independent RNG stream:
    [Rng.of_labels seed [prog; Config.base_name config; version;
    "divpass"; pass; func]] for the per-function transforms, and the
    historical [Rng.of_labels seed [prog; Config.base_name config;
    version]] program-wide stream for [nop].  Streams derive from
    {!Config.base_name} — the name {e without} pass suffixes — so
    enabling or disabling one pass never perturbs another pass's
    stream: with only [nop] enabled the diversified bytes are
    bit-identical to the pre-framework diversifier, and adding [sched]
    leaves [nop]'s draw sequence unchanged.

    {b Order.}  Passes run [sched → regperm → subst → nop]: the
    structure-preserving transforms first (they keep block instruction
    counts, so profile attribution and the {!Budget} planner see the
    true stream), NOP insertion last, exactly where Algorithm 1 ran
    before.

    {b Budget.}  With {!Config.budget_pct} set, the [nop] pass takes
    its per-block probabilities from the {!Budget} planner instead of
    the strategy heuristic. *)

type ctx = {
  prog : string;  (** program name (seed label) *)
  config : Config.t;
  profile : Profile.t;
  version : int;
}

type stats = {
  pass : string;
  seen : int;  (** items the pass considered *)
  changed : int;  (** insns moved / renamed / substituted / inserted *)
  bytes_added : int;  (** net encoded-size delta (negative possible) *)
}

type report = stats list
(** One entry per {e enabled} pass, in run order. *)

type pass = {
  pname : string;
  enabled : Config.passes -> bool;
  run : ctx -> Asm.func list -> Asm.func list * stats;
}

val registry : pass list
(** All known passes, in run order: [sched; regperm; subst; nop]. *)

val run_all : ctx -> Asm.func list -> Asm.func list * report
(** Run every enabled pass in registry order. *)

val nop_stats : report -> stats
(** The ["nop"] entry, or an all-zero record when the pass was off. *)
