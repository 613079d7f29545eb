(** Relocatable objects: per-function machine code before layout.

    This is the separate-compilation boundary the paper's toolchain has
    and our whole-program pipeline lacked: lowering emits one
    {!func_obj} per function — assembled bytes with {e unresolved}
    [Rel32] (call displacement) and [Abs32] (global address)
    relocations, a block-offset table, and provenance metadata — and the
    linker ({!Link.link_objects}) composes objects into an executable
    image without ever re-running instruction selection or register
    allocation.

    A {!t} is a compilation unit: the objects of one source file plus
    its global declarations, serializable with {!save}/{!load} inside a
    versioned, digest-checked {!Frame}. *)

type meta = {
  ir_digest : string;
      (** hex digest of the optimized IR the code was lowered from
          ([of_asm]'s default ["-"] marks hand-built or runtime objects
          that have no IR identity) *)
  pipeline : string;  (** {!Pipeline.descr_to_string} of the build *)
  arity : int;  (** formal parameter count (drives crt0 for [main]) *)
}

type func_obj = {
  sym : string;  (** defined symbol (the function name) *)
  code : string;  (** machine code; relocation sites hold zeros *)
  relocs : Asm.reloc list;  (** unresolved [Rel32]/[Abs32] sites *)
  labels : (Ir.label * int) list;
      (** block-offset table, function-relative — becomes the image's
          [block_offsets] after layout *)
  asm : Asm.func;
      (** the symbolic pre-layout stream: what NOP insertion diversifies
          and what re-assembly after diversification consumes *)
  meta : meta;
}

type t = {
  uname : string;  (** unit name (source file or program label) *)
  funcs : func_obj list;  (** in definition order *)
  globals : Ir.global list;
}

val format_version : int
(** Object-format version: checked by {!load}, folded into every
    {!Store} key so a bump invalidates cached artifacts. *)

val no_digest : string
(** The ["-"] placeholder digest of non-content-addressed objects. *)

val of_asm :
  ?ir_digest:string -> ?pipeline:string -> arity:int -> Asm.func -> func_obj
(** Assemble one symbolic function into a relocatable object. *)

val code_size : func_obj -> int

val save : t -> string -> unit
(** Write a unit ([magic | version | payload | digest], see {!Frame}). *)

val load : string -> t
(** Inverse of {!save}.  Raises [Failure] on bad magic, a version
    mismatch, truncation or corruption. *)
