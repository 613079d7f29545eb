(** The one wire layer: every byte that crosses a file, socket or pipe
    is laid out here.

    The container is [magic | version (u32 LE) | payload | MD5(payload)].
    Objects ({!Objfile}), linked images ({!Link}), profile recordings
    ({!Sprof}) and serve-protocol messages all use it, so every decoder
    distinguishes "not this kind of artifact", "produced by an
    incompatible build" and "truncated or corrupted" with a precise
    [Failure].  {!decode} is the one place untrusted bytes reach
    [Marshal], and only after the digest check.  Streams (the serve
    socket, the {!Pool} worker pipe) carry [u32 LE length | bytes]
    records. *)

val to_string : magic:string -> version:int -> payload:string -> string
(** [to_string ~magic ~version ~payload] is the framed byte string. *)

val of_string :
  magic:string -> version:int -> what:string -> src:string -> string -> string
(** [of_string ~magic ~version ~what ~src s] decodes a framed byte
    string back to its payload.  Raises [Failure] — naming [src] (a
    path, or a peer description for socket frames) and [what] (e.g.
    ["PSD object file"], ["serve request"]) — on bad magic, version
    mismatch, truncation, or a digest mismatch. *)

val write : magic:string -> version:int -> payload:string -> string -> unit
(** [write ~magic ~version ~payload path] frames [payload] and writes it
    to [path]. *)

(** {2 Marshalled payloads} *)

val encode : magic:string -> version:int -> 'a -> string
(** The container around [Marshal.to_string v []]. *)

val decode :
  magic:string -> version:int -> what:string -> src:string -> string -> 'a
(** Inverse of {!encode}; the caller fixes the result type.  Raises
    {!of_string}'s [Failure]s, and ["<src>: corrupt <what> (bad
    payload)"] when the digest-clean payload does not unmarshal. *)

val save : magic:string -> version:int -> 'a -> string -> unit
(** {!encode} to a file. *)

val load : magic:string -> version:int -> what:string -> string -> 'a
(** {!decode} of a file, with the path as [src]. *)

(** {2 Length-prefixed streams} *)

val prefixed : string -> string
(** [s] behind its u32 LE length. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte, retrying [EINTR]. *)

type reader
(** Slices records out of arbitrarily chunked input (a select loop). *)

val reader : max_frame:int -> what:string -> src:string -> reader
(** [what] names the stream in errors (["serve"]: "oversized serve
    frame"); [src] names the peer. *)

val feed : reader -> bytes -> int -> unit
(** [feed r b n] appends the first [n] bytes of [b]. *)

val next_frame : reader -> string option
(** The next complete record, prefix stripped, if buffered.  Raises
    [Failure] on a length claim over [max_frame], read from the prefix
    alone: framing is lost, close the stream. *)

val recv :
  max_frame:int -> what:string -> src:string -> Unix.file_descr -> string option
(** One record off a blocking descriptor; [None] on a clean EOF at a
    record boundary.  Raises [Failure] on EOF inside the prefix
    ("truncated <what> frame header") or the body ("truncated <what>
    frame"), and on an oversized claim. *)
