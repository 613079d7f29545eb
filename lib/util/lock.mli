(** A plain mutual-exclusion lock.

    The process-wide registries and caches ({!Metrics}, {!Trace},
    {!Memo}) are global mutable state, and every mutation goes through
    one of these.  Nothing in the toolchain shares them between threads:
    the worker pool forks processes, each with its own copy, and the
    serve daemon is a single-threaded select loop.  So the lock is never
    contended, and its uncontended cost is a few nanoseconds, far below
    the cost of the operations it guards. *)

type t

val create : unit -> t

val protect : t -> (unit -> 'a) -> 'a
(** [protect t f] runs [f] holding [t]; the lock is released even if [f]
    raises. *)
