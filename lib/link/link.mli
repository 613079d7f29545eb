(** The linker: relocatable objects to an executable image.

    Layout rule: the fixed runtime objects — the entry stub and the
    library functions — come first, at fixed offsets (undiversified,
    like the real crt0/libc objects the paper blames for its
    surviving-gadget floor), then the user objects in input order.
    After layout, the two relocation kinds are patched: [Rel32] call
    displacements and [Abs32] global data addresses.

    {!link_objects} is the only linker: the baseline and every
    diversified version go through it, and the committed
    [test/golden_nop_digests.json] fixture pins its whole output
    ([.text] and layout) for every workload.

    The data address space is separate from text (Harvard-style in the
    simulator, matching W⊕X): globals start at {!data_base}, the stack
    grows down from {!stack_top}. *)

type image = {
  text : string;  (** the final .text bytes *)
  text_base : int32;  (** virtual address of the first text byte *)
  symbols : (string * int) list;  (** function -> text offset *)
  entry : int;  (** text offset of the entry stub *)
  user_start : int;  (** text offset where (diversifiable) user code begins *)
  block_offsets : (string * (Ir.label * int) list) list;
      (** function -> (block label, absolute text offset) — the layout
          map {!Simprof} uses to attribute executed offsets back to basic
          blocks (and thus to the §3.1 training profile's keys) *)
  globals : (string * int32) list;  (** global -> absolute data address *)
  data_init : (int32 * int32 array) list;  (** address -> initial words *)
  main_arity : int;
}

val text_base : int32
(** 0x08048000, the classic Linux fixed load address the paper cites. *)

val data_base : int32
val stack_top : int32
val argv_address : image -> int32
(** Where the simulator must write the program arguments. *)

val runtime_objects : main_arity:int -> Objfile.func_obj list
(** The fixed runtime — crt0 built for [main_arity], then the library
    functions in link order — as relocatable objects.  Memoized per
    arity: every variant of every program composes the {e same} runtime
    objects. *)

val link_objects :
  ?expect_main_arity:int ->
  ?runtime:Objfile.func_obj list ->
  objects:Objfile.func_obj list ->
  globals:Ir.global list ->
  unit ->
  image
(** Link relocatable objects into an image.  [objects] must define
    ["main"]; its arity is read from the object's metadata and drives
    the crt0 stub ([runtime] defaults to {!runtime_objects} for that
    arity).  With [expect_main_arity], a differing object arity is a
    linker error.  Raises [Failure] — always naming the offending
    symbol — on a missing [main], a duplicate symbol, an unresolved
    function or global reference, or a [main]-arity mismatch. *)

val symbol_offset : image -> string -> int
(** Text offset of a function.  Raises [Failure] if absent. *)

val user_text : image -> string
(** The slice of [.text] holding user code only — what the diversifying
    transformations actually changed.  (Survivor runs on the whole
    section; this accessor supports libc-vs-user breakdowns.) *)

val format_version : int
(** Image-file format version (see {!Frame}); bumped whenever the
    marshalled [image] layout changes. *)

val to_bytes : image -> string
(** The image in its framed on-disk representation: magic,
    format-version field, marshalled payload and a payload-digest
    trailer ({!Frame.to_string}).  What {!save} writes, and what the
    serve protocol ships — a client can dump the bytes to a file and
    {!load} them. *)

val of_bytes : src:string -> string -> image
(** Inverse of {!to_bytes}; [src] names the origin (a path, a network
    peer) in errors.  Raises [Failure] on bad magic, a format-version
    mismatch, truncation or corruption. *)

val save : image -> string -> unit
(** Write {!to_bytes} to a file. *)

val load : string -> image
(** Inverse of {!save}.  Raises [Failure] on bad magic, a format-version
    mismatch, or a truncated or corrupted file. *)
