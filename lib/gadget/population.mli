(** Population survival analysis — paper Table 3.

    An attacker content to compromise a {e subset} of targets looks for
    gadgets common to as many diversified versions as possible, ignoring
    the original binary.  The unit of agreement is the pair
    (offset, normalized instruction sequence): the same logical gadget
    displaced to different offsets in different versions counts once per
    offset, which is why the paper observes {e more} gadgets in "≥2 of
    25" than in the original. *)

type report = {
  population : int;  (** number of versions analyzed *)
  at_least : (int * int) list;
      (** (k, number of (offset, gadget) pairs present in ≥ k versions) *)
}

val section_keys : string -> (int * string) list
(** One version's distinct (offset, normalized-sequence rendering) pairs
    under the default {!Finder.params}, sorted — the per-version scan that {!analyze} fans out and
    {!of_keys} merges.  Plain data, so a {!Pool} task can ship it across
    a process boundary. *)

val of_keys : thresholds:int list -> (int * string) list list -> report
(** Merge per-version key sets: for each threshold [k], count the
    distinct pairs appearing in at least [k] of the versions. *)

val analyze :
  ?jobs:Pool.jobs ->
  thresholds:int list ->
  string list ->
  report
(** [analyze ~thresholds sections] scans every version's [.text] and
    counts, for each threshold [k], the distinct (offset, normalized
    sequence) pairs appearing in at least [k] versions.  [jobs] (default
    serial) scans versions in parallel — the report is identical at any
    [-j].  Raises [Failure] if a parallel scan task dies.  Only for
    top-level use: inside an already-parallel grid (a pool task), keep
    the default — nested pools are rejected. *)
