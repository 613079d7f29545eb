(** A process-wide metrics registry: named counters and histograms.

    Instrumentation points across the toolchain (driver cache hits and
    misses, simulator faults and cache misses, NOP bytes per
    configuration) register by name on first use and accumulate for the
    life of the process; {!dump_json} is the single machine-readable sink
    — the bench suite writes it into its reports.

    Names are dotted paths ([driver.compile_cache.hit],
    [sim.icache_misses]).  Output is sorted by name, so dumps are stable
    across runs. *)

type counter
type histogram

val counter : string -> counter
(** Find-or-create the counter named [name]. *)

val incr : ?by:int64 -> counter -> unit
(** Add [by] (default 1). *)

val counter_value : counter -> int64

val histogram : string -> histogram
(** Find-or-create the histogram named [name]. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_values : histogram -> float list
(** Every recorded observation, oldest first — for callers (tests, the
    bench experiments) that need the raw series, not the summary. *)

val reset : unit -> unit
(** Zero every counter and empty every histogram (the registry itself —
    names — survives).  The bench suite resets between runs so a dump
    covers exactly one invocation. *)

(** {2 Snapshots}

    What makes the registry merge-safe under the {!Pool}'s process
    workers: a worker captures a {!snapshot} when it starts a task,
    computes the {!delta} once the task finishes, and ships the delta to
    the parent, which {!merge}s it in.  Counters add; histogram
    observations append.  Because every per-task delta is disjoint, the
    merged registry equals what a single-process run over the same tasks
    would have produced — a property the test suite checks. *)

type snapshot

val snapshot : unit -> snapshot
(** The registry's current contents, as plain marshalable data.  O(number
    of names): histogram value lists are immutable and shared, not
    copied. *)

val delta : since:snapshot -> snapshot
(** Everything recorded after [since] was taken: counter increments,
    fresh histogram observations, and every name first registered after
    [since], even one still at zero.  Only valid if {!reset} has not run
    in between. *)

val merge : snapshot -> unit
(** Add a (delta) snapshot into the registry: counters by addition,
    histogram values by observation.  Registers any names not yet
    present. *)

val dump : unit -> Jsonw.t
(** The registry as a JSON value:
    [{"counters": {name: n, ...},
      "histograms": {name: {count, sum, min, max, mean, p50, p90, p99}}}] *)

val dump_json : unit -> string
(** [Jsonw.to_string (dump ())]. *)
