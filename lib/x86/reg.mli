(** x86-32 general-purpose registers.

    The eight 32-bit registers, in hardware encoding order (the 3-bit value
    used in ModRM/SIB fields and in short-form opcodes such as
    [PUSH r32 = 50+rd]). *)

type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI
[@@deriving eq, ord, show]

type r8 = AL | CL | DL | BL [@@deriving eq, ord, show]
(** The four 8-bit low registers we need (for [SETcc]).  Their hardware
    encodings coincide with the corresponding 32-bit registers. *)

val encode : t -> int
(** 3-bit hardware number, 0-7. *)

val decode : int -> t
(** Inverse of {!encode}.  Raises [Invalid_argument] outside 0-7. *)

val encode8 : r8 -> int
val decode8 : int -> r8 option
(** [decode8 n] is [None] for encodings 4-7 (AH/CH/DH/BH, unsupported). *)

val name : t -> string
(** Conventional lowercase mnemonic, e.g. ["eax"]. *)

val name8 : r8 -> string
val all : t list
(** All eight registers in encoding order. *)

val of_r8 : r8 -> t
(** The 32-bit register containing an 8-bit register. *)
