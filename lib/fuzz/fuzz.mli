(** Fuzzing campaigns: generate → {!Oracle.check} → {!Shrink.shrink}.

    Fully deterministic in the campaign seed: the same [seed] and [count]
    produce the same programs, the same verdicts, and byte-identical
    reproducers.  Campaign accounting lands in the {!Metrics} registry
    under [fuzz.*] ([fuzz.programs], [fuzz.runs], [fuzz.skips],
    [fuzz.divergences], [fuzz.shrink.attempts], and the
    [fuzz.ir.*]/[fuzz.term.*] opcode-coverage counters). *)

type finding = {
  report : Oracle.report;  (** the original diverging program's report *)
  shrunk : Shrink.result option;  (** present when shrinking was enabled *)
}

type campaign = {
  seed : int64;
  count : int;
  checked : int;  (** programs actually checked *)
  runs : int;  (** total oracle executions, shrinking included *)
  skips : int;  (** documented-asymmetry skips encountered *)
  findings : finding list;  (** divergences, in discovery order *)
  errors : (int * string) list;
      (** harness-side task failures (raising tasks, crashed pool workers),
          by program index; empty on a healthy run *)
}

val run :
  ?levels:Pipeline.level list ->
  ?configs:(string * Config.t) list ->
  ?versions:int ->
  ?shrink:bool ->
  ?out_dir:string ->
  ?log:(string -> unit) ->
  ?jobs:Pool.jobs ->
  seed:int64 ->
  count:int ->
  unit ->
  campaign
(** Run a campaign of [count] programs.  Divergences are shrunk (unless
    [shrink:false]) and, with [out_dir], written there as
    [<name>.repro.mc] reproducer files (the directory is created if
    missing).  [log] receives human-readable progress lines.

    [jobs] (default serial) fans the generate→oracle grid out on the
    {!Pool}; each program is one task seeded by (campaign seed, index),
    so the campaign — verdicts, shrunk traces, reproducer bytes — is
    identical at every [-j].  Shrinking and file output always happen in
    the parent, in index order. *)

val reproducer : finding -> string
(** Self-contained reproducer: header comments carrying the seed tuple,
    arguments and divergence, followed by the (shrunk, if available)
    MiniC source.  Valid MiniC. *)

val parse_args_header : string -> int32 list
(** Recover main's arguments from a reproducer's or corpus file's
    ["// args: ..."] line; [[]] if the line is absent.  Raises [Failure]
    on a malformed value. *)

val record_coverage : Driver.compiled -> unit
(** Tally the program's IR opcodes into the [fuzz.ir.*] / [fuzz.term.*]
    Metrics counters — the bench experiment's generator-coverage
    measure. *)
