(** Diversification configuration.

    Mirrors the parameter sets evaluated in the paper: uniform
    probabilities (pNOP = 50%, 30%) and profile-guided ranges
    (25–50%, 10–50%, 0–30%) under the logarithmic heuristic — extended
    with the divpass transform portfolio (instruction scheduling
    randomization, register-assignment permutation,
    equivalent-instruction substitution) and an optional overhead
    budget. *)

type strategy =
  | Off  (** no diversification — the baseline binary *)
  | Uniform of float  (** one pNOP for every instruction (Algorithm 1) *)
  | Profiled of {
      pmin : float;
      pmax : float;
      shape : Heuristic.shape;
      scope : [ `Program | `Function ];
          (** whether x_max is the program-wide or per-function maximum
              (the paper uses the program-wide maximum) *)
    }

type passes = {
  nop : bool;  (** NOP insertion (Algorithm 1); on by default *)
  sched : bool;  (** intra-block instruction-scheduling randomization *)
  regperm : bool;  (** seeded permutation of allocatable callee-saved regs *)
  subst : bool;  (** equivalent-instruction substitution *)
}

val nop_only : passes
(** The default pass set: NOP insertion alone — the paper's diversifier. *)

type t = {
  strategy : strategy;
  use_xchg : bool;  (** enable the two bus-locking XCHG candidates *)
  bb_shift : bool;
      (** the paper's §6 extension: prepend a jumped-over dummy block of
          random size to every function, compensating for the low
          displacement NOP insertion achieves near the start of the
          binary *)
  seed : int64;  (** base seed; combined with program/version labels *)
  passes : passes;  (** which diversity transforms run (see {!Divpass}) *)
  budget_pct : float option;
      (** overhead budget in percent: when set, per-block NOP intensity
          is planned from profile counts (greedy coldest-first over the
          {!Timing} cost model) so estimated overhead stays under the
          budget instead of following [strategy] verbatim *)
}

val off : t

val uniform : ?seed:int64 -> float -> t
(** Raises [Invalid_argument] unless the probability is a whole percent
    in [\[0, 1\]] (0.3, not 0.375): {!name} prints whole percents, so
    any other value would collide with the rounded config's name. *)

val profiled :
  ?seed:int64 -> ?shape:Heuristic.shape -> ?scope:[ `Program | `Function ] ->
  pmin:float -> pmax:float -> unit -> t
(** Raises [Invalid_argument] unless [pmin] and [pmax] are whole
    percents in [\[0, 1\]] with [pmin <= pmax]. *)

val with_budget : t -> float -> t
(** [with_budget t pct] enables budgeted mode at [pct] percent overhead.
    Raises [Invalid_argument] unless [pct] is finite, positive and has
    at most 4 decimals — the precision {!name} prints. *)

val paper_configs : (string * t) list
(** The five configurations of Figure 4 / Tables 2–3, in paper order:
    ["p50"], ["p30"], ["p25-50"], ["p10-50"], ["p0-30"]. *)

val of_spec : string -> (t, string) result
(** Resolve a configuration spec: a paper-config name (["p0-30"]),
    ["off"]/["baseline"], or any name {!name} can print (["p38"],
    ["p25-50-lin-fn"]: probabilities in whole percents), with optional
    [+xchg] [+shift] [+sched] [+regperm] [+subst] [+nonop] [+b<PCT>]
    suffixes (["p0-30+sched+subst+b1"]).  The one grammar shared by [minicc
    --config], the serve protocol and the bench harness.  The error
    names the offending part of the spec.  Inverse of {!name}: every
    printable config re-parses to an equal config, and a spec with its
    suffixes in {!name}'s order is that config's name (["off"] aside, the
    alias of ["baseline"]): no ["p050"], ["+b2.50"] or ["+b1e0"]. *)

val base_name : t -> string
(** The name {e without} the divpass/budget suffixes — the identity of
    the paper's NOP-insertion diversifier alone.  This label (not
    {!name}) seeds every pass's RNG stream, so toggling one pass never
    perturbs another pass's randomness (see {!Divpass}). *)

val name : t -> string
(** Short display name, e.g. "p10-50" or "p0-30+sched+b1".  Injective
    over behaviour-relevant fields: per-function scope appends ["-fn"],
    the XCHG candidates ["+xchg"], basic-block shifting ["+shift"], the
    linear heuristic ["-lin"], enabled divpasses ["+sched"]
    ["+regperm"] ["+subst"] (and ["+nonop"] when NOP insertion is off),
    a budget ["+b<PCT>"].  The name keys reports and derives RNG
    streams (see {!Divpass}), so distinct configs must never collide. *)
