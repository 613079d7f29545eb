(** Execution profiles: per-basic-block execution counts.

    A profile maps (function, block label) to the number of times that
    block executed during the training run.  The paper (§3.1) derives
    these from per-edge counters; {!Spanning} implements that counter
    placement and reconstruction, and {!collect} produces the same data
    via the reference interpreter (the two are cross-validated by the test
    suite). *)

type t

val empty : t
val of_block_counts : (string * Ir.label, int64) Hashtbl.t -> t
(** A profile of a copy of the table; the caller keeps the original. *)

val collect :
  ?fuel:int64 -> Ir.modul -> entry:string -> args:int32 list -> t
(** Run the instrumented program on a training input and collect block
    counts — the profiling run of the paper's §3.1. *)

val collect_many :
  ?fuel:int64 -> Ir.modul -> entry:string -> args_list:int32 list list -> t
(** Accumulate over several training inputs (the PHP experiment profiles
    seven different workloads). *)

val block_count : t -> func:string -> Ir.label -> int64
(** 0 for blocks never seen — missing profile data means cold. *)

val max_count : t -> int64
(** The largest block count in the whole program ([x_max] in the paper's
    formula). *)

val max_count_func : t -> string -> int64
(** The largest count within one function. *)

val merge : ?weight:float -> t -> t -> t
(** Pointwise sum.  [weight] (default 1) scales the {e second} profile's
    counts before adding — the cross-run weighting the sampled-profile
    pipeline uses when some recordings should count for more (longer
    runs, more trusted workloads).  Scaled counts are rounded to the
    nearest integer; entries that round to zero are dropped (below the
    profile's resolution).  Raises [Invalid_argument] on a negative
    weight. *)

val fold : (string * Ir.label -> int64 -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every (function, block) count, in unspecified order. *)

val is_empty : t -> bool

val to_string : t -> string
(** Textual serialization, stable across runs ("llvmprof.out" analogue). *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Failure "Profile.of_string: line
    N: ..."] on a malformed line, a negative count, or a second line for
    the same (function, label). *)

val median_nonzero : t -> float
(** Median of the non-zero block counts — used to reproduce the paper's
    473.astar discussion (median ≪ max motivates the log heuristic). *)
