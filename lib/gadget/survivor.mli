(** The Survivor comparison algorithm (paper §5.2).

    Given the [.text] of an original binary and of a diversified binary,
    count the gadgets that remain {e functionally equivalent at the same
    section offset}.  For each candidate pair — two valid straight-line
    sequences at identical offsets, each ending in a free branch — both
    sequences are normalized by deleting every potentially-inserted NOP
    (Table 1 candidates), then compared.  Deleting NOPs can only make the
    sequences more alike, so the count conservatively {e overestimates}
    survival, exactly as the paper argues.

    Offsets, not absolute addresses, are compared, which makes the
    analysis independent of ASLR-style base randomization.  Both
    sections are read at the scanner depth of {!Finder.default_params}. *)

val surviving_gadgets :
  original:string -> diversified:string -> unit -> Finder.t list
(** The gadgets of [original] that survive in [diversified], in offset
    order: the original-section decodings at the surviving offsets.
    The one Survivor entry point — Table 2 counts the list, the attack
    checker judges it ({!Attack.attack_on_gadgets}), and attack-surface
    analyses read its offsets.  [original] is scanned once and
    memoized with each gadget's NOP-stripped sequence, since a census
    compares one original against every version.  The diversified
    section is walked with {!Decode.classify}; instructions are decoded
    only where the walk reaches a free branch within the scanner depth.
    The comparison is instruction equality, not the canonical form of
    {!Population.key}: a survivor is the same instructions, not just the
    same rendering. *)
