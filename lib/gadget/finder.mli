(** ROP gadget discovery over a [.text] section.

    A gadget is an instruction sequence that (i) starts at {e any} byte
    offset — including offsets inside intended instructions, which is
    where most gadgets hide (paper Figure 2), (ii) decodes to valid
    straight-line code with no control flow in the middle, and (iii) ends
    in a {e free branch}: [RET], [RET imm16], an indirect [CALL], or an
    indirect [JMP].

    This models the scanning strategy of ROPgadget-class tools: walk
    backward from every free-branch byte pattern, keeping every prefix
    start that decodes cleanly into the branch.  The rule, for a start
    [s]: the linear sweep from [s] meets its first instruction that
    {!breaks_gadget} at a free branch [b] with [b - s <= max_back_bytes],
    after at most [max_insns] instructions counting [b], and every
    instruction on the way decodes. *)

type t = {
  offset : int;  (** start offset of the sequence within the section *)
  insns : Insn.t list;  (** decoded instructions, free branch last *)
  bytes : string;  (** raw bytes of the sequence *)
}

val pp : Format.formatter -> t -> unit

type params = {
  max_insns : int;  (** maximum instructions per gadget, branch included *)
  max_back_bytes : int;  (** how far before the branch to try starts *)
}

val default_params : params
(** 8 instructions, 30 bytes — comparable to ROPgadget's default search
    depth. *)

val breaks_gadget : Insn.t -> bool
(** Control flow that may not appear inside a gadget body.  Software
    interrupts are allowed: execution falls through them, and
    [int 0x80; ret] is the canonical syscall gadget. *)

val free_branch_sites : string -> (int * int) list
(** Offsets (and lengths) of every decodable free-branch instruction in
    the section, at any alignment, read from {!Decode.classify}. *)

val iter : ?params:params -> string -> (int -> Insn.t list -> unit) -> unit
(** [iter text f] calls [f start insns] for every gadget of the section,
    in decreasing start order — {!scan} without building the records.
    One backward pass over {!Decode.classify}'s lengths and classes
    finds the starts; instructions are decoded only at the found starts,
    once each, and the lists share their tails: the gadget at [start]
    is its first instruction on the list of the gadget one instruction
    on, which [f] has already seen. *)

val window : int
(** A power of two above the longest instruction.  When {!iter} calls
    [f start (i :: rest)] with [rest] non-empty, the last start [f] saw
    in the slot [(start + length of i) mod window] is the one that
    [rest] belongs to, so a caller can keep per-gadget results in
    [window] slots. *)

val scan : ?params:params -> string -> t list
(** All gadgets in a section, sorted by offset; at most one gadget per
    start offset (the shortest ending in the nearest free branch). *)

val count : ?params:params -> string -> int
(** [List.length (scan s)], counting the starts without building the
    gadget records. *)
