(** The compilation context: per-stage instrumentation threaded through
    the whole compiler.

    One [Cctx.t] accompanies a program from source to binary.  Every pass
    and lowering stage records a {!stat} — wall time, a size before/after
    pair in the stage's natural unit (IR instructions, MIR instructions,
    assembly items), emitted bytes where meaningful, and whether the run
    changed anything.  The records are raw (one per pass {e run}, so a
    fixpoint pipeline contributes one record per iteration); {!aggregate}
    folds them into the per-pass table the [--pass-stats] flag prints.

    The context itself knows nothing about IR or machine code — stages
    describe themselves with strings — so it can live below every layer
    of the compiler and be threaded through all of them. *)

type stat = {
  stage : string;
      (** pipeline layer: ["front"], ["ir"], ["machine"] or ["link"] —
          compile-time stages only; a variant's diversity passes report
          through [Divpass.report] instead *)
  pass : string;  (** pass or stage name, e.g. ["constfold"], ["regalloc"] *)
  func : string;  (** function the run applied to; ["*"] for whole-module *)
  time_s : float;  (** wall-clock seconds for this run *)
  items_before : int;  (** size before, in the stage's unit *)
  items_after : int;  (** size after, in the stage's unit *)
  bytes : int;  (** emitted or added machine bytes; [0] when meaningless *)
  changed : bool;
}

type agg = {
  a_stage : string;
  a_pass : string;
  runs : int;  (** number of recorded runs (fixpoint iterations included) *)
  changed_runs : int;  (** runs that reported a change *)
  total_s : float;
  delta : int;  (** summed [items_after - items_before] *)
  total_bytes : int;
}

type t

val create : ?verify_each:bool -> string -> t
(** [create name] makes an empty context for program [name].
    [verify_each] records the caller's intent to re-verify the IR after
    every pass; the pass manager consults it via {!verify_each}. *)

val verify_each : t -> bool

val timed : (unit -> 'a) -> 'a * float
(** Run a thunk and measure its wall time on the monotonic {!Clock}, so
    the result is never negative even if the system clock steps. *)

val record : t -> stat -> unit

val stats : t -> stat list
(** All recorded stats, in chronological order. *)

val aggregate : t -> agg list
(** Per-(stage, pass) totals, in first-recorded order. *)

val pp_table : Format.formatter -> t -> unit
(** The [--pass-stats] table: one row per pass with run count, total
    time, summed size delta and emitted bytes. *)

val to_json : t -> string
(** The same data as a JSON object: program name, the aggregate table
    and the raw per-run records. *)
