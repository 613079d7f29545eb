(** Sampled production profiles: recorded, persisted, merged, replayed.

    The production half of the PGO loop.  {!Sim.sample_profile} gives PC
    samples by text offset on whatever binary actually ran — including a
    {e diversified} one; this module back-maps them through the image's
    layout tables ({!Simprof.locator}) to (function, block) rows, so the
    attribution is NOP-aware by construction: the diversified image's
    [block_offsets] describe the diversified layout, and block labels
    survive diversification.  A profile of variant A can therefore
    retrain variant B.

    Recordings carry provenance (image digest, diversification config
    and seed, workload, sample period, sample count, merge weight) and
    persist in the PSDPROF on-disk format — the same {!Frame} container
    as objects and images, so loads distinguish wrong-kind, wrong-
    version, truncated and corrupted files precisely.

    {!to_profile} converts the sampled mass into a training
    {!Profile.t} for {!Driver.diversify_linked}.  Counts are quantized to
    power-of-four buckets so the closed loop (diversify → sample →
    retrain → re-diversify) is insensitive to sub-bucket sampling noise
    and can reach a byte-level fixed point; {!staleness} quantifies how
    far a (possibly stale, possibly cross-variant) sampled profile sits
    from a fresh exact training profile. *)

type source = {
  image_digest : string;  (** MD5 hex of the profiled image's [.text] *)
  config : string;  (** diversification config name, [""] if baseline *)
  seed : int64;  (** diversification seed, [0L] if none *)
  workload : string;
  period : float;  (** cycles between samples *)
  samples : int64;
  weight : float;  (** cumulative merge weight applied to this source *)
}
(** Provenance of one recording.  Merging concatenates source lists, so
    a merged profile remembers every run that went into it. *)

type t = {
  sources : source list;  (** in merge order *)
  rows : (string * Ir.label, float) Hashtbl.t;
      (** weighted sampled cycle mass per user (function, block) *)
  runtime_mass : float;  (** mass landing in the fixed runtime or stub *)
  unknown_mass : float;  (** mass at offsets outside any symbol *)
}

val empty : t
val is_empty : t -> bool

val total_mass : t -> float
(** Sum of the user-row masses (runtime and unknown mass excluded). *)

val image_digest : Link.image -> string
(** MD5 hex of the image's [.text] — the identity recordings carry. *)

val of_run :
  image:Link.image ->
  ?config:string ->
  ?seed:int64 ->
  workload:string ->
  Sim.result ->
  t
(** Back-map one sampled run.  Each sample contributes [period] cycles
    of mass at its back-mapped (function, block).  [image] must be the
    binary the run executed — its layout tables are what make the
    attribution correct under diversification.  Raises
    [Invalid_argument] if the run was not started with
    [~sample_period]. *)

val merge : ?weight:float -> t -> t -> t
(** Pointwise sum of row masses; the second profile's mass (and its
    sources' recorded weights) are scaled by [weight] (default 1) — the
    cross-run weighting for fleets where some recordings should count
    for more.  Raises [Invalid_argument] on a negative weight. *)

val to_profile : t -> Profile.t
(** The training profile {!Driver.diversify_linked} consumes.  Masses are
    normalized so the hottest row maps to [2^20], then rounded to the
    nearest power of four (minimum 1: any sampled block counts as warm).
    The coarse buckets make the profile — and hence the retrained
    binary — insensitive to sub-bucket sampling noise, which is what
    lets the closed PGO loop reach a fixed point. *)

type staleness = {
  coverage_pct : float;
      (** % of the fresh profile's executed blocks that were sampled *)
  hot_overlap_pct : float;
      (** weighted overlap of the two 90%-mass hot sets, weighted by the
          fresh profile's shares *)
  mean_drift_pct : float;
      (** mean |per-function share difference|, percentage points *)
  max_drift_pct : float;  (** largest per-function share difference *)
}

val staleness : fresh:Profile.t -> t -> staleness
(** How far this sampled profile sits from a fresh exact training
    profile — the telemetry {!Driver.train_from_profile} exports.  An
    empty side yields zeros rather than NaNs. *)

val drift_threshold_pct : float
(** Hot-set overlap below which a recording counts as materially
    drifted (90%). *)

val materially_drifted : previous:Profile.t -> t -> bool
(** Has production behaviour drifted from the profile the deployed
    binary was trained on?  True when the recording's weighted hot-set
    overlap against [previous] falls below {!drift_threshold_pct} (or
    either side is empty).  Sparse sampling makes the cold tail of a
    recording churn run-to-run; gating retraining on hot-set drift is
    what lets the closed PGO loop reach a fixed point instead of
    redeploying on noise. *)

val magic : string
(** ["PSDPROF"], the first bytes of every file {!save} writes — how a
    caller tells a recording from a text {!Profile} before loading. *)

val save : t -> string -> unit
(** Write in the PSDPROF format: {!Frame} magic ["PSDPROF"], version 1,
    marshaled payload with rows in sorted order (byte-stable for equal
    contents). *)

val load : string -> t
(** Raises [Failure] — naming the path — on bad magic, version skew,
    truncation, or corruption, like every other PSD loader. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** Provenance lines, then a flat (function, block) mass table sorted by
    (mass descending, key ascending) with flat and cumulative
    percentages.  [top] truncates to the N hottest rows. *)

val pp_staleness : Format.formatter -> staleness -> unit

val dump : ?top:int -> t -> Jsonw.t
(** Machine-readable form ([psd-sampled-profile/1]). *)

val to_json : ?top:int -> t -> string
