(** A plain mutual-exclusion lock.

    The observability registries ({!Metrics}, {!Trace}) are global mutable
    state, so every mutation goes through one of these: any caller that
    records from several domains or threads at once stays safe.  The
    worker pool forks processes, so today the lock is never contended;
    its uncontended cost is a few nanoseconds, far below the cost of the
    instrumented operations themselves. *)

type t

val create : unit -> t

val protect : t -> (unit -> 'a) -> 'a
(** [protect t f] runs [f] holding [t]; the lock is released even if [f]
    raises. *)
