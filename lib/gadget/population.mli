(** Population survival analysis — paper Table 3.

    An attacker content to compromise a {e subset} of targets looks for
    gadgets common to as many diversified versions as possible, ignoring
    the original binary.  The unit of agreement is the pair
    (offset, normalized instruction sequence): the same logical gadget
    displaced to different offsets in different versions counts once per
    offset, which is why the paper observes {e more} gadgets in "≥2 of
    25" than in the original. *)

val thresholds : int -> int list
(** [thresholds n] is the paper's Table 3 thresholds for an [n]-version
    population: the absolute 2, 5 and 12, plus the same fractions of
    [n] (8%, 20% and 48%, at least 2), sorted and deduplicated.  At the
    paper's [n = 25] this is exactly [[2; 5; 12]]. *)

type report = {
  population : int;  (** number of versions analyzed *)
  at_least : (int * int) list;
      (** (k, number of (offset, gadget) pairs present in ≥ k versions) *)
}

type key = int * Insn.t list
(** A gadget's (offset, normalized sequence).  The sequence is the
    gadget's instructions without the NOP candidates of Table 1
    ({!Nops.is_candidate}), each folded by {!Insn.canonical}: the
    register-register [MOV r32, r/m32] ([8B /r]) and ALU [r32, r/m32]
    ([03/0B/.../3B /r]) forms become their [89 /r] and [01/09/.../39 /r]
    twins, which [Insn.to_string] already renders alike.  Two keys are
    equal exactly when their offsets and renderings are. *)

val section_keys : string -> key list
(** One version's distinct keys under the default {!Finder.params},
    sorted by offset — the per-version scan that {!add} counts.  A
    gadget made only of NOP candidates has no key.  Plain data, so a
    pool task can ship it across a process boundary. *)

type counts
(** A census in progress: for every pair seen so far, the number of
    versions containing it.  Its size is the number of distinct pairs,
    not the number of versions, and it holds each distinct sequence
    once, however many offsets it is counted at. *)

val create : unit -> counts

val add : counts -> key list -> unit
(** Count one version's {!section_keys}. *)

val report : thresholds:int list -> counts -> report
(** For each threshold [k], the distinct pairs counted in at least [k]
    of the versions added so far; [population] is the number of adds.
    Independent of the order in which versions were added. *)

val of_keys : thresholds:int list -> key list list -> report
(** {!add} every key set to a fresh {!create}, then {!report}. *)
