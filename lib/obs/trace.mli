(** A span-based tracer for the whole toolchain.

    One global tracer collects begin/end spans (nestable, with string
    key/value attributes) and instant events, timestamped on the
    monotonic {!Clock}.  The driver opens a span around every pipeline
    stage (compile → train → diversify → link → simulate) and the bench
    harness around every experiment; [minicc --trace=FILE] and
    [bench --trace=FILE] export the collected events in Chrome
    trace-event JSON (load it in [chrome://tracing] or Perfetto).

    Tracing is {e disabled} by default and near-zero cost while disabled:
    {!begin_span}/{!end_span}/{!instant} test one boolean and return.
    The tracer is deliberately global — spans are opened many layers
    apart (driver, pass manager, simulator, bench runner) and threading a
    handle through every signature would dwarf the feature. *)

type span
(** An open span, returned by {!begin_span} and consumed by {!end_span}.
    While the tracer is disabled, spans are inert placeholders. *)

val start : unit -> unit
(** Enable collection, dropping any previously collected events. *)

val stop : unit -> unit
(** Disable collection.  Collected events are kept for {!export_json}. *)

val reset : unit -> unit
(** Disable and drop everything. *)

val begin_span : ?cat:string -> ?args:(string * string) list -> string -> span
(** Open a span named [name] with optional category and attributes. *)

val end_span : ?args:(string * string) list -> span -> unit
(** Close a span; [args] are merged with those given at {!begin_span}. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span; the span is closed even if
    [f] raises. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val event_count : unit -> int
(** Number of collected events (completed spans + instants). *)

(** {2 Cross-process stitching}

    The {!Pool}'s forked workers inherit the tracer state (enabled flag
    and time origin), so spans they record are on the parent's timeline.
    A worker takes a {!mark} when it picks up a task, ships
    {!since}[ mark] back with the task's result, and the parent
    {!absorb}s the events under the worker's id — [--trace] output then
    shows one track ([tid]) per worker. *)

type events
(** A batch of collected events; plain marshalable data. *)

val mark : unit -> int
(** The current collected-event count, to pass to {!since} later. *)

val since : int -> events
(** The events collected after {!mark} returned the given count. *)

val absorb : ?tid:int -> events -> unit
(** Append a batch recorded elsewhere, re-tagged with thread id [tid]
    (default 1; pool workers use [2 + worker slot]).  Dropped when the
    tracer is disabled. *)

val export_json : unit -> string
(** The collected events as a Chrome trace-event JSON object
    ([{"traceEvents": [...]}]), timestamps in microseconds. *)

val write : string -> unit
(** [write file] saves {!export_json} to [file]. *)
