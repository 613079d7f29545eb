(** The pass manager.

    A pipeline is described by data — a {!descr}: the list of
    {!Pass.t} values to run, iterated to a fixpoint bounded by
    [max_rounds].  Descriptions parse from strings and round-trip
    ({!descr_of_string} / {!descr_to_string}), so paper configurations
    and ablations ("O2 minus CSE") are one-line invocations of the
    [minicc --passes] flag.

    {!run} executes a description over a module, optionally recording one
    {!Cctx.stat} per pass run (wall time, IR size delta) into a
    compilation context, and optionally re-verifying every function after
    every pass ([verify_each]) rather than only once at the end — a
    malformed function is reported against the pass that broke it. *)

type level = O0 | O1 | O2
(** [O0]: no optimization.  [O1]: one round of the standard sequence.
    [O2]: iterate the standard sequence to fixpoint (bounded). *)

val level_of_string : string -> level option
val level_name : level -> string

val registry : Pass.t list
(** Every known IR pass, in standard [-O2] order: CFG simplification,
    constant folding, copy propagation, CSE, DCE. *)

val find_pass : string -> Pass.t option
val pass_names : string list

type descr = {
  passes : Pass.t list;  (** run in order, repeatedly *)
  max_rounds : int;  (** fixpoint bound; [1] = single round, [0] = nothing *)
}

val default_rounds : int
(** Fixpoint bound used when a description doesn't specify one (10 —
    far beyond what real inputs need, but guarantees termination even if
    a pass pair were to oscillate). *)

val of_level : level -> descr

val descr_to_string : descr -> string
(** Comma-separated pass names, with an [@N] suffix when [max_rounds]
    differs from {!default_rounds} — e.g. ["simplify-cfg,constfold@1"].
    The empty pipeline prints as [""]. *)

val descr_of_string : string -> (descr, string) result
(** Inverse of {!descr_to_string}; also the [--passes] argument syntax.
    Unknown pass names and malformed [@N] suffixes are reported in the
    error string.  [descr_of_string (descr_to_string d) = Ok d]. *)

val descr_equal : descr -> descr -> bool
(** Structural equality (pass names and round bound). *)

val run : ?cctx:Cctx.t -> ?verify_each:bool -> descr -> Ir.modul -> Ir.modul
(** Run the description over every function, in place.  With [cctx],
    each pass run records a ["ir"]-stage stat.  With [verify_each],
    every function is re-checked ({!Verify.check_func}) after every pass
    run and a [Failure] names the offending pass. *)

val optimize : Ir.modul -> Ir.modul
(** Run the [-O2] pipeline over every function in place, re-verify the
    module, and return it.  Raises [Failure] if a pass broke structural
    invariants. *)
