(* Telemetry: the machine-readable perf trajectory (telemetry.json) plus
   a direct quantification of the paper's central claim (§3.2, Fig. 4) —
   that profile-guided insertion pushes NOPs *out of hot code*.

   Protocol, per workload: run the undiversified baseline on the ref
   input with the simulator's runtime-profile hook and classify basic
   blocks as hot (the smallest set covering >= 90% of baseline retired
   instructions) or cold.  Then, per configuration and version, run the
   diversified binary the same way and attribute every *retired*
   candidate NOP to the hot or cold side through the (function, block
   label) key — labels survive diversification, so baseline and
   diversified profiles align exactly.  A uniform config retires NOPs
   where the program spends its time (hot); the profile-guided configs
   should show the NOP mass migrating to the cold side while overhead
   drops.

   The report carries per-config overhead and attribution per workload,
   the geometric-mean and median overhead per config, the median
   sampled-profiling overhead, and the process metrics registry (cache
   hit rates, simulator totals).  All of it is modeled, so all of it is
   deterministic; the perf gate bands the two medians. *)

let hot_share_target = 0.90

type attribution = {
  overhead_pct : float;
  nops_retired : float;  (* mean over versions *)
  hot_nop_share_pct : float;  (* share of retired NOPs landing in hot blocks *)
  hot_density_pct : float;  (* retired NOPs per retired insn inside hot blocks *)
  cold_density_pct : float;
}

(* (function, label) -> baseline-hot?  Blocks the baseline never executed
   are cold by definition. *)
let hot_blocks (prof : Simprof.t) =
  let all =
    List.concat_map
      (fun (r : Simprof.func_row) ->
        List.map
          (fun (b : Simprof.block_row) -> ((r.fname, b.label), b.b_insns))
          r.blocks)
      prof.rows
  in
  let sorted =
    List.sort (fun (_, a) (_, b) -> Int64.compare b a) all
  in
  let target =
    Int64.to_float prof.total_insns *. hot_share_target
  in
  let hot = Hashtbl.create 64 in
  let covered = ref 0.0 in
  List.iter
    (fun (key, insns) ->
      if !covered < target then begin
        Hashtbl.replace hot key ();
        covered := !covered +. Int64.to_float insns
      end)
    sorted;
  hot

let split_by_hotness hot (prof : Simprof.t) =
  (* (hot insns, hot nops, cold insns, cold nops) of a diversified run. *)
  List.fold_left
    (fun acc (r : Simprof.func_row) ->
      List.fold_left
        (fun (hi, hn, ci, cn) (b : Simprof.block_row) ->
          if Hashtbl.mem hot (r.fname, b.label) then
            (Int64.add hi b.b_insns, Int64.add hn b.b_nops, ci, cn)
          else (hi, hn, Int64.add ci b.b_insns, Int64.add cn b.b_nops))
        acc r.blocks)
    (0L, 0L, 0L, 0L) prof.rows

let i64f = Int64.to_float

let measure_config p ~(base : Sim.result) ~hot (cname, config) =
  let w = p.Suite.workload in
  let versions = !Suite.perf_versions in
  let acc_overhead = ref 0.0
  and acc_nops = ref 0.0
  and acc_hot_share = ref 0.0
  and acc_hot_density = ref 0.0
  and acc_cold_density = ref 0.0 in
  for version = 0 to versions - 1 do
    let image, _ =
      Driver.diversify_linked p.Suite.compiled ~config ~profile:p.Suite.profile
        ~version
    in
    let r = Driver.run_image image ~profile:true ~args:w.Workload.ref_args in
    if r.Sim.output <> base.Sim.output then
      failwith
        (Printf.sprintf "telemetry: %s/%s version %d output mismatch" w.name
           cname version);
    let prof = Simprof.of_result image r in
    let hi, hn, ci, cn = split_by_hotness hot prof in
    acc_overhead := !acc_overhead +. ((r.Sim.cycles /. base.Sim.cycles) -. 1.0);
    acc_nops := !acc_nops +. i64f r.Sim.nops_retired;
    acc_hot_share :=
      !acc_hot_share
      +. (if Int64.compare r.Sim.nops_retired 0L > 0 then
            i64f hn /. i64f r.Sim.nops_retired
          else 0.0);
    acc_hot_density :=
      !acc_hot_density
      +. (if Int64.compare hi 0L > 0 then i64f hn /. i64f hi else 0.0);
    acc_cold_density :=
      !acc_cold_density
      +. (if Int64.compare ci 0L > 0 then i64f cn /. i64f ci else 0.0)
  done;
  let n = float_of_int versions in
  {
    overhead_pct = Suite.pct (!acc_overhead /. n);
    nops_retired = !acc_nops /. n;
    hot_nop_share_pct = Suite.pct (!acc_hot_share /. n);
    hot_density_pct = Suite.pct (!acc_hot_density /. n);
    cold_density_pct = Suite.pct (!acc_cold_density /. n);
  }

let attribution_json (cname, (a : attribution)) =
  Jsonw.Obj
    [
      ("config", Jsonw.Str cname);
      ("overhead_pct", Jsonw.Float a.overhead_pct);
      ("nops_retired", Jsonw.Float a.nops_retired);
      ("hot_nop_share_pct", Jsonw.Float a.hot_nop_share_pct);
      ("cold_nop_share_pct", Jsonw.Float (100.0 -. a.hot_nop_share_pct));
      ("hot_nop_density_pct", Jsonw.Float a.hot_density_pct);
      ("cold_nop_density_pct", Jsonw.Float a.cold_density_pct);
    ]

(* One workload's measurement, run as a pool task: everything it needs
   (the prepared artifacts) is built in the parent beforehand, and all it
   sends back is plain data — the baseline result and the per-config
   attributions.  No printing in here: the parent renders rows in
   workload order so the report is byte-identical at any -j. *)
let measure_row (p : Suite.prepared) =
  let w = p.Suite.workload in
  Trace.with_span "telemetry-workload"
    ~args:[ ("workload", w.Workload.name) ]
    (fun () ->
      let base =
        Driver.run_image p.Suite.baseline ~profile:true ~args:w.Workload.ref_args
      in
      let base_prof = Simprof.of_result p.Suite.baseline base in
      let hot = hot_blocks base_prof in
      (* Production profiling cost: the same baseline run with cycle
         sampling on at the deployment period.  Sampling only ever adds
         [sample_cost] cycles per sample, so its overhead is exactly the
         recorded [sample_overhead_cycles] — modeled, deterministic, and
         pinned by the perf gate. *)
      let sampled =
        Driver.run_image p.Suite.baseline
          ~sample_period:Sim.default_sample_period ~args:w.Workload.ref_args
      in
      let sampling_overhead_pct =
        let sp = Option.get sampled.Sim.sample_profile in
        Suite.pct
          (sp.Sim.sample_overhead_cycles
          /. (sampled.Sim.cycles -. sp.Sim.sample_overhead_cycles))
      in
      let per_config =
        List.map (fun c -> (fst c, measure_config p ~base ~hot c)) Suite.configs
      in
      (base, sampling_overhead_pct, per_config))

let run () =
  Format.printf
    "@.Telemetry: per-config overhead and hot-vs-cold NOP attribution (hot \
     = blocks covering %.0f%%@.of baseline retired instructions; share = \
     %% of retired NOPs landing in hot blocks)@."
    (100.0 *. hot_share_target);
  Suite.hr Format.std_formatter;
  (* Prepare (compile + train + baseline link) in the parent so workers
     inherit a warm artifact cache and the cache-hit counters match the
     serial run exactly. *)
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let measured =
    Suite.grid ~what:"telemetry"
      ~label:(fun p -> p.Suite.workload.Workload.name)
      measure_row prepared
  in
  let rows =
    List.concat
      (List.map2
         (fun p -> function
           | None -> []
           | Some (base, sampling_overhead_pct, per_config) ->
               let w = p.Suite.workload in
               Format.printf "%-16s %10s %10s %10s %10s %10s@." w.Workload.name
                 "overhead" "nops" "hot-share" "hot-dens" "cold-dens";
               List.iter
                 (fun (cname, a) ->
                   Format.printf
                     "  %-14s %9.2f%% %10.0f %9.2f%% %9.2f%% %9.2f%%@." cname
                     a.overhead_pct a.nops_retired a.hot_nop_share_pct
                     a.hot_density_pct a.cold_density_pct)
                 per_config;
               Format.printf "  %-14s %9.3f%%@." "sampling" sampling_overhead_pct;
               [ (w, base, sampling_overhead_pct, per_config) ])
         prepared measured)
  in
  Suite.hr Format.std_formatter;
  (* Geometric-mean overhead per config across workloads. *)
  let geomeans =
    List.map
      (fun cname ->
        let factors =
          List.map
            (fun (_, _, _, per_config) ->
              1.0 +. ((List.assoc cname per_config).overhead_pct /. 100.0))
            rows
        in
        (cname, Suite.pct (Stats.geomean_ratio factors -. 1.0)))
      Suite.config_names
  in
  Format.printf "%-16s" "Geometric Mean";
  List.iter (fun (_, o) -> Format.printf "%9.2f%%" o) geomeans;
  Format.printf "@.";
  (* The numbers the perf gate reads: per config, the median overhead
     across workloads, and the median production-sampling overhead. *)
  let median f = Jsonw.Float (Stats.median (List.map f rows)) in
  let median_overhead =
    List.map
      (fun cname ->
        ( cname,
          median (fun (_, _, _, per_config) ->
              (List.assoc cname per_config).overhead_pct) ))
      Suite.config_names
  in
  Suite.write_report ~experiment:"telemetry"
    ~deterministic:
      [
        ("versions", Jsonw.int !Suite.perf_versions);
        ("hot_insn_share_target", Jsonw.Float hot_share_target);
        ("sample_period", Jsonw.int Sim.default_sample_period);
        ( "workloads",
          Jsonw.List
            (List.map
               (fun
                 ((w : Workload.t), (base : Sim.result), sampling, per_config)
               ->
                 Jsonw.Obj
                   [
                     ("name", Jsonw.Str w.name);
                     ( "baseline",
                       Jsonw.Obj
                         [
                           ("instructions", Jsonw.Int base.Sim.instructions);
                           ("cycles", Jsonw.Float base.Sim.cycles);
                           ( "icache_misses",
                             Jsonw.Int base.Sim.icache_misses );
                           ("sampling_overhead_pct", Jsonw.Float sampling);
                         ] );
                     ( "configs",
                       Jsonw.List (List.map attribution_json per_config) );
                   ])
               rows) );
        ( "geomean_overhead_pct",
          Jsonw.Obj (List.map (fun (c, o) -> (c, Jsonw.Float o)) geomeans) );
        ("median_overhead_pct", Jsonw.Obj median_overhead);
        ( "median_sampling_overhead_pct",
          median (fun (_, _, sampling, _) -> sampling) );
        ("metrics", Metrics.dump ());
      ]
    ()
