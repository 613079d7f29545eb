(** Small statistics toolkit used by the evaluation harness.

    The paper reports averages over repeated randomized builds, geometric
    means across benchmarks, and medians of execution-count distributions;
    these helpers centralize those computations. *)

val mean : float list -> float
(** Arithmetic mean.  [nan] on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values.  [nan] on the empty list; raises
    [Invalid_argument] if any value is non-positive. *)

val median : float list -> float
(** Median (average of the two central elements for even lengths).  [nan]
    on the empty list. *)
