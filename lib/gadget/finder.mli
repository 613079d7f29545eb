(** ROP gadget discovery over a [.text] section.

    A gadget is an instruction sequence that (i) starts at {e any} byte
    offset — including offsets inside intended instructions, which is
    where most gadgets hide (paper Figure 2), (ii) decodes to valid
    straight-line code with no control flow in the middle, and (iii) ends
    in a {e free branch}: [RET], [RET imm16], an indirect [CALL], or an
    indirect [JMP].

    This models the scanning strategy of ROPgadget-class tools: walk
    backward from every free-branch byte pattern, keeping every prefix
    start that decodes cleanly into the branch. *)

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

type decoder
(** The decodes of one section, each offset decoded at most once, on
    demand. *)

val decoder : string -> decoder

val decode : decoder -> int -> (Insn.t * int) option
(** [Decode.insn ~pos] through the memo ([None] outside the section). *)

val free_branch_sites : string -> (int * int) list
(** Offsets (and lengths) of every decodable free-branch instruction in
    the section, at any alignment.  Only offsets holding a free branch's
    first byte ([C3], [C2] or [FF]) are decoded. *)

val iter : ?params:params -> decoder -> (int -> Insn.t list -> unit) -> unit
(** [iter d f] calls [f start insns] for every gadget of the section, in
    increasing start order — {!scan} without building the records. *)

val scan : ?params:params -> string -> t list
(** All gadgets in a section, sorted by offset; at most one gadget per
    start offset (the shortest ending in the nearest free branch). *)

val count : ?params:params -> string -> int
(** [List.length (scan s)], counting the starts without building the
    gadget records. *)
