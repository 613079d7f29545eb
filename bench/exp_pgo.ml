(* The closed PGO loop (pgo-loop.json; reference report BENCH_PR7.json):
   production-style sampled profiles feeding the diversifier, measured
   for iterative stability and for the cost of training from a stale,
   sampled, cross-variant profile instead of a fresh exact one.

   Protocol, per workload and profile-guided config:

   - Iterate the production loop from a cold start: diversify with an
     empty profile, run the diversified binary on the train input with
     cycle sampling on (the production recording), back-map the samples
     through the diversified image's own layout tables, retrain from the
     sampled profile, re-diversify, repeat.  Every image in the loop
     uses the same (config, version) — only the profile changes — so
     the loop has a fixed point exactly when the quantized sampled
     profile stops changing the binary.  We record the iteration at
     which the image bytes repeat and the staleness telemetry (block
     coverage, weighted hot-set overlap, per-function drift vs the fresh
     exact training profile) of every iterate.

   - Compare end states: overhead (ref input, vs the undiversified
     baseline) of the fresh-profile PGO build versus the loop's final
     sampled-profile build.  The delta is the price of sampling +
     quantization + cross-variant staleness; the acceptance bar of the
     PR that introduced this experiment holds the grid to within 0.5pp
     of fresh-train PGO (median well inside; a few per-config tails
     driven by power-of-four quantization of the hot end can exceed it —
     see EXPERIMENTS.md). *)

let max_iters = 4

type iter_row = {
  iter : int;
  samples : int64;
  sampled_rows : int;
  staleness : Sprof.staleness;
  text_digest : string;
  same_as_prev : bool;
}

type config_row = {
  cname : string;
  iters : iter_row list;
  fixed_point_iter : int option;
      (* first iteration whose image equals the previous one *)
  fresh_overhead_pct : float;
  sampled_overhead_pct : float;
  stale_delta_pp : float;
}

let profiled_configs =
  List.filter
    (fun (_, c) ->
      match c.Config.strategy with Config.Profiled _ -> true | _ -> false)
    Suite.configs

let overhead_pct ~(base : Sim.result) (r : Sim.result) =
  Suite.pct ((r.Sim.cycles /. base.Sim.cycles) -. 1.0)

let measure_config (p : Suite.prepared) ~(base : Sim.result)
    ~(base_train : Sim.result) (cname, config) =
  let w = p.Suite.workload in
  let check ~expect what (r : Sim.result) =
    if r.Sim.output <> expect.Sim.output then
      failwith
        (Printf.sprintf "pgo-loop: %s/%s %s output mismatch" w.Workload.name
           cname what)
  in
  let diversify profile =
    fst (Driver.diversify_linked p.Suite.compiled ~config ~profile ~version:0)
  in
  (* The production loop, from a cold (profile-less) deployment.  Each
     iteration merges two production recordings (train and ref inputs)
     and retrains through the drift-gated path: the deployed profile is
     kept unless the new recording has materially drifted from it, so a
     retrained binary whose behaviour still matches its own training
     profile is a fixed point. *)
  let rec loop iter deployed prev_digest image acc =
    let record args =
      Driver.record_profile image ~config:cname ~seed:config.Config.seed
        ~workload:w.Workload.name ~args
    in
    let rec_train, r_train = record w.Workload.train_args in
    check ~expect:base_train
      (Printf.sprintf "iteration %d (sampled, train)" iter)
      r_train;
    let rec_ref, r_ref = record w.Workload.ref_args in
    check ~expect:base (Printf.sprintf "iteration %d (sampled, ref)" iter) r_ref;
    let sprof = Sprof.merge rec_train rec_ref in
    let profile =
      Driver.train_from_profile ~fresh:p.Suite.profile ~previous:deployed
        p.Suite.compiled sprof
    in
    let next = diversify profile in
    let digest = Digest.to_hex (Digest.string next.Link.text) in
    let samples r = (Option.get r.Sim.sample_profile).Sim.samples_taken in
    let row =
      {
        iter;
        samples = Int64.add (samples r_train) (samples r_ref);
        sampled_rows = Hashtbl.length sprof.Sprof.rows;
        staleness = Sprof.staleness ~fresh:p.Suite.profile sprof;
        text_digest = digest;
        same_as_prev = String.equal digest prev_digest;
      }
    in
    let acc = row :: acc in
    if row.same_as_prev || iter + 1 >= max_iters then (List.rev acc, next)
    else loop (iter + 1) profile digest next acc
  in
  let cold = diversify Profile.empty in
  let cold_digest = Digest.to_hex (Digest.string cold.Link.text) in
  let iters, final = loop 0 Profile.empty cold_digest cold [] in
  let fixed_point_iter =
    List.find_opt (fun r -> r.same_as_prev) iters
    |> Option.map (fun r -> r.iter)
  in
  (* End-state comparison on the ref input. *)
  let fresh_image = diversify p.Suite.profile in
  let fresh_r = Driver.run_image fresh_image ~args:w.Workload.ref_args in
  check ~expect:base "fresh-profile build" fresh_r;
  let final_r = Driver.run_image final ~args:w.Workload.ref_args in
  check ~expect:base "sampled-profile build" final_r;
  let fresh_overhead_pct = overhead_pct ~base fresh_r in
  let sampled_overhead_pct = overhead_pct ~base final_r in
  {
    cname;
    iters;
    fixed_point_iter;
    fresh_overhead_pct;
    sampled_overhead_pct;
    stale_delta_pp = sampled_overhead_pct -. fresh_overhead_pct;
  }

let measure_row (p : Suite.prepared) =
  let w = p.Suite.workload in
  Trace.with_span "pgo-workload"
    ~args:[ ("workload", w.Workload.name) ]
    (fun () ->
      let base = Driver.run_image p.Suite.baseline ~args:w.Workload.ref_args in
      let base_train =
        Driver.run_image p.Suite.baseline ~args:w.Workload.train_args
      in
      List.map (measure_config p ~base ~base_train) profiled_configs)

let iter_json (r : iter_row) =
  Jsonw.Obj
    [
      ("iter", Jsonw.int r.iter);
      ("samples", Jsonw.Int r.samples);
      ("sampled_rows", Jsonw.int r.sampled_rows);
      ("coverage_pct", Jsonw.Float r.staleness.Sprof.coverage_pct);
      ("hot_overlap_pct", Jsonw.Float r.staleness.Sprof.hot_overlap_pct);
      ("mean_drift_pct", Jsonw.Float r.staleness.Sprof.mean_drift_pct);
      ("max_drift_pct", Jsonw.Float r.staleness.Sprof.max_drift_pct);
      ("text_digest", Jsonw.Str r.text_digest);
      ("same_as_prev", Jsonw.Bool r.same_as_prev);
    ]

let config_json (c : config_row) =
  Jsonw.Obj
    [
      ("config", Jsonw.Str c.cname);
      ( "fixed_point_iter",
        match c.fixed_point_iter with
        | Some i -> Jsonw.int i
        | None -> Jsonw.Null );
      ("fresh_overhead_pct", Jsonw.Float c.fresh_overhead_pct);
      ("sampled_overhead_pct", Jsonw.Float c.sampled_overhead_pct);
      ("stale_delta_pp", Jsonw.Float c.stale_delta_pp);
      ("iterations", Jsonw.List (List.map iter_json c.iters));
    ]

let run () =
  Format.printf
    "@.PGO loop: diversify -> sample (period %d) -> retrain -> \
     re-diversify, to a fixed@.point; then sampled-profile vs \
     fresh-profile overhead on the ref input@."
    Sim.default_sample_period;
  Suite.hr Format.std_formatter;
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let measured =
    Suite.grid ~what:"pgo-loop"
      ~label:(fun p -> p.Suite.workload.Workload.name)
      measure_row prepared
  in
  let rows =
    List.concat
      (List.map2
         (fun p -> function
           | None -> []
           | Some per_config ->
               let w = p.Suite.workload in
               Format.printf "%-16s %8s %9s %9s %9s %9s %8s@." w.Workload.name
                 "fixed@" "coverage" "overlap" "fresh" "sampled" "delta";
               List.iter
                 (fun c ->
                   let last = List.nth c.iters (List.length c.iters - 1) in
                   Format.printf
                     "  %-14s %8s %8.1f%% %8.1f%% %8.2f%% %8.2f%% %+7.2fpp@."
                     c.cname
                     (match c.fixed_point_iter with
                     | Some i -> string_of_int i
                     | None -> "none")
                     last.staleness.Sprof.coverage_pct
                     last.staleness.Sprof.hot_overlap_pct c.fresh_overhead_pct
                     c.sampled_overhead_pct c.stale_delta_pp)
                 per_config;
               [ (w, per_config) ])
         prepared measured)
  in
  Suite.hr Format.std_formatter;
  (* Worst stale-vs-fresh delta and slowest convergence, for the summary
     line and the PR acceptance bar. *)
  let all_configs = List.concat_map snd rows in
  let worst_delta =
    List.fold_left
      (fun acc c -> Float.max acc (Float.abs c.stale_delta_pp))
      0.0 all_configs
  in
  let median_delta =
    Stats.median (List.map (fun c -> c.stale_delta_pp) all_configs)
  in
  let over_bar =
    List.length (List.filter (fun c -> c.stale_delta_pp > 0.5) all_configs)
  in
  let unconverged =
    List.length (List.filter (fun c -> c.fixed_point_iter = None) all_configs)
  in
  Format.printf
    "stale - fresh overhead delta: median %+.3fpp, worst |delta| %.3fpp, \
     over +0.5pp: %d/%d;@.configs without a fixed point in %d iterations: \
     %d/%d@."
    median_delta worst_delta over_bar
    (List.length all_configs)
    max_iters unconverged (List.length all_configs);
  Suite.write_report ~experiment:"pgo-loop"
    ~deterministic:
      [
        ("sample_period", Jsonw.int Sim.default_sample_period);
        ("max_iterations", Jsonw.int max_iters);
        ( "workloads",
          Jsonw.List
            (List.map
               (fun ((w : Workload.t), per_config) ->
                 Jsonw.Obj
                   [
                     ("name", Jsonw.Str w.name);
                     ("configs", Jsonw.List (List.map config_json per_config));
                   ])
               rows) );
        ("median_stale_delta_pp", Jsonw.Float median_delta);
        ("worst_stale_delta_pp", Jsonw.Float worst_delta);
        ("configs_over_half_pp", Jsonw.int over_bar);
        ("unconverged_configs", Jsonw.int unconverged);
      ]
    ()
