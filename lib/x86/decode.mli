(** IA-32 linear-sweep decoder.

    The inverse of {!Encode}, plus graceful handling of arbitrary byte
    streams: gadget scanners decode at {e every} offset of a [.text]
    section, including mid-instruction offsets, so the decoder must never
    raise — bytes that are not a valid instruction of our machine language
    yield [None].

    Non-canonical but architecturally valid encodings (e.g. a 32-bit
    displacement that would have fitted in 8 bits) are accepted; this
    mirrors a real disassembler and matters for gadget scanning, where the
    interesting instruction streams start inside other instructions.

    One opcode table decides both questions a scanner asks at every
    offset: how long the instruction there is, and what it does to a
    gadget.  {!classify} answers them without building an {!Insn.t}.
    {!insn} builds the instruction without the table, checking every
    operand rule itself, so the two are independent readings of the
    same bytes and agree at every offset. *)

val classify : string -> int -> int
(** [classify bytes pos] is the instruction at offset [pos] as one int,
    [length * 4 + class] (read them with {!length_of} and {!class_of}),
    or [0] ({!undecodable}) where {!insn} returns [None].  It never
    allocates.  The class is {!free_branch} exactly for
    {!Insn.is_free_branch} instructions, {!breaks_gadget} for the
    other control flow that ends a gadget body ([Finder.breaks_gadget]:
    all but [int]), and {!ordinary} for the rest. *)

val length_of : int -> int
(** The encoded length in a {!classify} result. *)

val class_of : int -> int
(** The class in a {!classify} result: one of the four below. *)

val undecodable : int
val ordinary : int
val free_branch : int
val breaks_gadget : int

val insn : ?pos:int -> string -> (Insn.t * int) option
(** [insn ?pos bytes] decodes one instruction starting at byte offset
    [pos] (default 0).  Returns the instruction and its encoded length, or
    [None] if the bytes at [pos] are not a valid instruction (unknown
    opcode, invalid ModRM digit, or truncated): exactly where
    {!classify} is {!undecodable}. *)

val sequence : ?pos:int -> ?max:int -> string -> (Insn.t * int) list
(** [sequence ?pos ?max bytes] linear-sweeps from [pos], returning
    [(insn, offset)] pairs, stopping at the first undecodable byte, after
    [max] instructions (default: unbounded), or at the end of the
    buffer. *)

val all : string -> (int * Insn.t) list
(** Decode a whole section front to back (offset, instruction); stops at
    the first invalid byte.  Intended for encoder-produced sections, where
    it consumes every byte. *)

val pp_listing : Format.formatter -> string -> unit
(** Hex-dump disassembly listing of a section, one instruction per line
    ("[offset]  [bytes]  [mnemonic]"); undecodable tail bytes are shown as
    [(bad)]. *)
