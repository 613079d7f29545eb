(** Runtime profiles: simulator execution counts mapped back to symbols.

    {!Sim.exec_profile} is indexed by raw text offset; this module folds
    it through the image's layout symbols ({!Link.image.symbols} and
    {!Link.image.block_offsets}) into per-function and per-basic-block
    attributions of retired instructions, retired candidate NOPs and
    modeled cycles — the runtime-side mirror of the §3.1 training
    profiles, and the measurement the paper's "overhead lands in cold
    code" claim (§3.2, Fig. 4) needs.

    The flat table ({!pp_flat}) is pprof-style: functions sorted by
    retired instructions, with flat and cumulative percentages and a
    per-function NOP density.  {!to_json} is the machine-readable form
    [minicc run --sim-profile=json] prints and the bench telemetry
    experiment consumes. *)

type block_row = {
  label : Ir.label;  (** [-1] for bytes before the first block label *)
  b_insns : int64;
  b_nops : int64;
  b_cycles : float;
}

type func_row = {
  fname : string;
  offset : int;  (** function start, text offset *)
  in_runtime : bool;  (** part of the fixed (undiversified) runtime *)
  insns : int64;
  nops : int64;
  cycles : float;
  blocks : block_row list;
      (** sorted by ([b_insns] descending, [label] ascending) — a total
          order, so dumps are byte-stable across runs and [-j] levels *)
}

type t = {
  rows : func_row list;
      (** sorted by ([insns] descending, [offset] ascending) — offsets
          are unique, so the order is total and dumps diff cleanly *)
  total_insns : int64;
  total_nops : int64;
  total_cycles : float;
}

val of_exec : Link.image -> Sim.exec_profile -> t
(** Attribute every counted offset to the function (and block) whose
    range contains it.  The row totals sum exactly to the whole-run
    counters of the {!Sim.result} the profile came from. *)

val of_result : Link.image -> Sim.result -> t
(** [of_exec] on the result's profile.  Raises [Invalid_argument] if the
    run was not started with [~profile:true]. *)

val locator : Link.image -> int -> string * Ir.label * bool
(** [locator image] precomputes the image's layout tables and returns a
    total function from text offset to (function, block label,
    in-runtime).  Offsets before the first block label of their function
    map to label [-1]; offsets outside any symbol map to ["?"].  This is
    the back-mapping primitive {!Sprof} uses to attribute PC samples
    taken on a {e diversified} binary: the image's [block_offsets]
    describe the diversified layout, so the mapping is NOP-aware by
    construction. *)

val pp_flat : ?top:int -> Format.formatter -> t -> unit
(** The pprof-style flat table (flat and cumulative percentages per
    function).  [top] truncates to the N hottest functions. *)

val dump : ?top:int -> t -> Jsonw.t
(** Rows carry [flat_pct]/[sum_pct] so truncated dumps remain
    self-describing; [total.functions] records the untruncated count. *)

val to_json : ?top:int -> t -> string
