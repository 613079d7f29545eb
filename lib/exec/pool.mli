(** A deterministic parallel job pool.

    Every expensive loop in this reproduction is an embarrassingly
    parallel grid: bench cells (workload × config × version), Survivor
    population scans (per diversified version), fuzz campaigns (per
    generated program).  {!run} executes such a grid's tasks on worker
    processes and hands back the results {e in task order}, so a parallel
    run is byte-identical to the serial one — tasks draw their randomness
    from the existing per-(program, config, version) or per-(seed, index)
    RNG streams (see {!Rng.of_labels}), never from shared generator
    state, so no artifact depends on which worker ran which task, or
    when.

    Backends, behind this one interface:

    - [`Fork`] (default wherever [Unix.fork] exists): one child process
      per worker, task results marshalled back over a pipe.  Process
      isolation is what buys the hard guarantees: a task that dies — OOM,
      segfault in a C stub, [kill -9] — costs exactly that task
      ({!Crashed}); the pool reaps the worker, reassigns the rest of its
      share to a replacement, and carries on.  Per-task timeouts are
      enforced inside the worker by an interval timer and backstopped by
      the parent, which kills a wedged worker outright ({!Timed_out}).
    - Serial: [jobs = 1] (or one task, or a build without [Unix.fork])
      runs tasks in-process in order — the reference semantics the fork
      backend is compared against.

    Worker telemetry is not lost: under [`Fork`], each task result
    travels with a {!Metrics} delta and the {!Trace} spans recorded while
    it ran; the parent merges the deltas and stitches the spans under a
    per-worker track id, so [--trace] and [--pass-stats] keep working
    under [-j].

    The pool does not nest: a task that itself calls {!run} gets a
    {!Failed} result (and a direct nested call raises {!Nested}) — grids
    parallelize at one level, chosen by the caller. *)

type jobs =
  | Auto  (** one worker per available core *)
  | Jobs of int  (** exactly n workers (clamped to at least 1) *)

val jobs_of_string : string -> (jobs, string) result
(** Parse a [-j]/[--jobs] argument: ["auto"] or a positive integer. *)

val jobs_to_string : jobs -> string

val auto_jobs : unit -> int
(** What [Auto] resolves to: the number of available cores (at least
    1). *)

type 'a outcome =
  | Done of 'a
  | Failed of string  (** the task raised; the exception's rendering *)
  | Crashed of string  (** the worker process died under the task *)
  | Timed_out  (** the task exceeded [timeout_s] *)

exception Nested
(** Raised by {!run} when called from inside a running task. *)

val run : ?timeout_s:float -> ?jobs:jobs -> (unit -> 'a) list -> 'a outcome list
(** [run tasks] executes the tasks and returns one outcome per task, in
    the order given (default [jobs] is [Auto]).  Task results cross a
    process boundary under the fork backend, so they must be plain data —
    no closures, no custom blocks; a task whose result cannot be
    marshalled fails with {!Failed}.  [timeout_s] bounds each task's wall
    time individually. *)

val map :
  ?timeout_s:float -> ?jobs:jobs -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map f items] is [run (List.map (fun x () -> f x) items)]. *)

val outcome_to_string : 'a outcome -> string
(** ["done"], or the failure rendering — for error reports. *)

val backend_name : unit -> string
(** Which backend a multi-worker {!run} uses — ["fork"], or ["serial"]
    where [Unix.fork] is unavailable — for reports. *)
