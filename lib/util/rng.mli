(** Deterministic pseudo-random number generation for diversification.

    Every diversified program version must be reproducible from a seed, and
    versions of the same program must be statistically independent.  We use
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, well-mixed,
    splittable generator whose state is a single [int64].  The compiler
    derives one independent stream per (program, configuration, version)
    triple via {!val:split} and {!val:of_labels}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val of_labels : int64 -> string list -> t
(** [of_labels seed labels] derives a generator from a base seed and a list
    of textual labels (e.g. benchmark name, configuration name, version
    index).  Distinct label lists give independent streams; the derivation
    is stable across runs and platforms. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 30 uniformly random bits, as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].  [p] outside [0;1] is
    clamped. *)

val threshold : float -> int
(** [threshold p] is {!bernoulli}'s test on [p] as one integer, for
    loops that draw many times at one probability: [p <= 0] and
    [p >= 1] map to sentinels that {!draw_below} decides without a
    draw, NaN maps to 0 (a draw that never succeeds, as [bernoulli]
    makes), and any other [p] to [ceil (p * 2^53)]. *)

val draw_below : t -> int -> bool
(** [draw_below t (threshold p)] decides exactly as [bernoulli t p] and
    takes the same draws from [t]: the integer compare [r53 < thr] on
    the draw's top 53 bits is [bernoulli]'s [r53 / 2^53 < p], with no
    float arithmetic. *)

val first_success : t -> int -> int -> int
(** [first_success t thr n] runs up to [n] trials [draw_below t thr] and
    returns the number that failed before the first success, or [n] when
    none succeeds: the same decisions and the same draws as that loop,
    in one call. *)

val choose : t -> 'a array -> 'a
(** [choose t arr] picks a uniformly random element.  Raises
    [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
