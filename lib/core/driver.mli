(** The end-to-end diversifying compiler, as a staged driver.

    Ties the whole system together the way the paper's modified LLVM
    does: MiniC source → IR → optimization pipeline ([-O2] by default,
    or any {!Pipeline.descr}) → instruction selection → liveness →
    register allocation → symbolic assembly → {b NOP insertion} → layout
    and linking against the fixed runtime.

    Every compile-time stage runs through the {!Cctx.t} carried by the
    compiled program: the frontend, each IR pass run (with its fixpoint
    iterations), each machine-lowering stage and the baseline link.
    [compiled.cctx] is therefore a per-stage account of where compile
    time and code size went.  Diversification — NOP insertion
    immediately before layout, exactly where the paper places it (§4) —
    runs once per variant, so its account is the {!Divpass.report} each
    {!diversify_linked} call returns, not a record in the shared
    context.

    The profiling round-trip mirrors §3.1: compile once, run the program
    on a training input under the instrumented (reference) interpreter,
    and feed the collected block counts to subsequent diversified
    builds. *)

type compiled = {
  name : string;  (** program name (seed label and reporting key) *)
  modul : Ir.modul;  (** the optimized IR *)
  objects : Objfile.func_obj list;
      (** one relocatable object per user function, in definition order —
          lowered through the content-addressed {!Store}, so a function
          whose (IR digest, pipeline) was lowered before is a store hit
          and skips isel/liveness/regalloc/emit entirely *)
  asm : Asm.func list;
      (** undiversified user functions (the objects' symbolic streams) *)
  main_arity : int;
  cctx : Cctx.t;  (** per-stage instrumentation for this compilation *)
  pipeline : Pipeline.descr;  (** the pass pipeline that was run *)
  cache_key : string;  (** identity under {!compile_cached} *)
}

val compile :
  ?opt:Pipeline.level ->
  ?passes:Pipeline.descr ->
  ?verify_each:bool ->
  name:string ->
  string ->
  compiled
(** Compile MiniC source.  [passes] selects an explicit pipeline and
    overrides [opt] (default [-O2]).  With [verify_each], the IR is
    re-verified after every pass run, not only after the pipeline.
    Raises [Failure] on frontend errors, verification failures, or if
    [main] is missing. *)

val compile_cached :
  ?opt:Pipeline.level ->
  ?passes:Pipeline.descr ->
  ?verify_each:bool ->
  name:string ->
  string ->
  compiled
(** Like {!compile}, memoized on (name, source digest, pipeline,
    [verify_each]).  The evaluation harness compiles each workload many
    times across experiments; this is its shared artifact cache. *)

val train : compiled -> args:int32 list -> Profile.t
(** One profiling run on a training input. *)

val train_cached : compiled -> args:int32 list -> Profile.t
(** Like {!train}, memoized on the compilation's cache key and [args]. *)

val link_baseline : compiled -> Link.image
(** The undiversified binary. *)

val link_baseline_cached : compiled -> Link.image
(** Like {!link_baseline}, memoized on the compilation's cache key. *)

val clear_caches : ?store:bool -> unit -> unit
(** Drop every memoized artifact (compilations, profiles, baselines) and,
    unless [~store:false], the content-addressed function store too.
    [~store:false] is the incremental-build scenario: the program-level
    memos go cold but per-function lowering artifacts survive. *)

val diversify_linked :
  compiled ->
  config:Config.t ->
  profile:Profile.t ->
  version:int ->
  Link.image * Divpass.report
(** Build one diversified version — the only way a variant is built.
    Every pass enabled in [config.passes] runs in {!Divpass.registry}
    order over the undiversified symbolic functions, each under its own
    RNG stream derived from (config seed, program name,
    {!Config.base_name}, version[, pass, function]), so the same triple
    always reproduces the same binary, distinct versions are
    independent, and toggling one pass never perturbs another's stream.
    Each diversified function is then wrapped as a relocatable object
    and {!Link.link_objects} composes them with the memoized runtime
    objects: lowering always comes from {!compiled.objects}, so a build
    performs only the diversity passes and the relink.  Leaves
    [compiled.cctx] untouched: the per-variant account is the returned
    report, and only the process-wide [diversify.*] counters and the
    [diversify.nop_bytes.<config>] histogram are updated.  The resulting
    images are pinned, whole, by [test/golden_nop_digests.json]. *)

val population :
  compiled ->
  config:Config.t ->
  profile:Profile.t ->
  n:int ->
  init:'a ->
  ('a -> Link.image -> 'a) ->
  'a
(** Fold [f] over versions [0 .. n-1] in order (the paper builds 25
    for Tables 2 and 3): each image is built through
    {!diversify_linked}, handed to [f] and dropped, so a census of any
    size holds one image at a time.  A warm population build performs
    zero isel/liveness/regalloc stage runs. *)

val run_ir : compiled -> args:int32 list -> Interp.result
(** Execute the optimized IR under the reference interpreter. *)

val run_image :
  ?fuel:int64 ->
  ?profile:bool ->
  ?sample_period:int ->
  Link.image ->
  args:int32 list ->
  Sim.result
(** Execute a linked binary under the CPU simulator ({!Sim.run}).
    [profile] collects the per-offset runtime {!Sim.exec_profile} (see
    {!Simprof}); [sample_period] additionally records a cycle-sampled
    {!Sim.sample_profile} (see {!Sprof}). *)

val record_profile :
  ?fuel:int64 ->
  ?sample_period:int ->
  ?config:string ->
  ?seed:int64 ->
  Link.image ->
  workload:string ->
  args:int32 list ->
  Sprof.t * Sim.result
(** One production-style profiling run: execute the (possibly
    diversified) binary with cycle sampling on (default period
    {!Sim.default_sample_period}) and back-map the samples into a
    {!Sprof.t} recording.  [config]/[seed] label the provenance with the
    diversification that produced the image. *)

val train_from_profile :
  ?fresh:Profile.t -> ?previous:Profile.t -> compiled -> Sprof.t -> Profile.t
(** The production side of the §3.1 loop: derive the training profile
    for {!diversify_linked} from a recorded (loaded, merged, possibly stale,
    possibly cross-variant) sampled profile instead of an instrumented
    interpreter run — {!Sprof.to_profile} with telemetry.  When [fresh]
    is given (an exact training profile of the same program), exports
    staleness telemetry through {!Obs.Metrics}: histograms
    [pgo.staleness.coverage_pct], [pgo.staleness.hot_overlap_pct],
    [pgo.staleness.mean_drift_pct] and [pgo.staleness.max_drift_pct].
    When [previous] is given (the profile the running binary was trained
    on), applies retrain-on-drift hysteresis: if the recording has not
    {!Sprof.materially_drifted} from [previous], returns [previous]
    unchanged (counter [pgo.retrain.kept]) so the loop redeploys nothing
    on sampling noise; otherwise returns the freshly quantized profile
    (counter [pgo.retrain.applied]). *)
