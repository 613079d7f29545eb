(* serve: throughput and correctness of the variant-serving daemon
   (serve.json; reference report BENCH_PR9.json).

   Per worker count in the grid, the experiment forks one daemon with a
   *cold* cache state (the child drops every driver cache before
   serving) and replays the same seeded request trace twice:

     cold — the daemon pays compile + train + lowering for each
            workload the trace touches, then diversifies;
     warm — every artifact is memoized, so serving is NOP insertion and
            relink only, and the Built replies must report exactly zero
            lowering runs.

   Both replays collect the returned digests; they must be identical
   (warm output is byte-for-byte the cold output), and a third replay
   with the serial in-process oracle enabled pins every digest at every
   -j to ground truth.  Timing excludes the oracle: the timed replays
   do nothing but RPC.

   The headline is [warm_cold_ratio] — warm variants/sec over cold
   variants/sec at -j 1 — which the CI perf gate floors (the
   wall_clock.warm_cold_ratio row of test/perf_baseline.json): if the
   store or the driver memos stop being warm, the ratio collapses
   toward 1 and the gate trips.

   The report closes with the population-at-scale run: the paper's
   25-version Table 3 survivor analysis regrown to --serve-population
   (default 1000) variants through the pool, with the paper's
   thresholds both absolute (2, 5, 12) and rescaled to the same
   fractions of the population (8%, 20%, 48% of n). *)

let jobs_grid = [ 1; 2; 4 ]
let requests = 24
let versions_per_request = 10
let version_space = 150
let trace_seed = 9L

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "psd-serve-bench-%d.sock" (Unix.getpid ()))

(* The daemon child: drop every inherited cache so the first replay is
   genuinely cold, then serve until the client's Shutdown. *)
let fork_daemon ~socket ~jobs =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Driver.clear_caches ();
          Sdaemon.run
            {
              (Sdaemon.default_cfg (Sdaemon.Unix_sock socket)) with
              Sdaemon.jobs = Pool.Jobs jobs;
              queue_cap = 256;
              batch = 32;
            };
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> pid

type replay = {
  wall_s : float;
  variants : int;
  vps : float;
  lowering_runs : int;
  digests : string list;
}

let timed_replay fd reqs =
  let digests = ref [] in
  let r =
    Sclient.replay
      ~on_built:(fun (b : Sproto.built) ->
        List.iter
          (fun (v : Sproto.variant) -> digests := v.Sproto.digest :: !digests)
          b.Sproto.variants)
      fd reqs
  in
  if r.Sclient.shed > 0 || r.Sclient.errors > 0 then
    failwith
      (Printf.sprintf "replay: %d shed, %d error replies" r.Sclient.shed
         r.Sclient.errors);
  {
    wall_s = r.Sclient.wall_s;
    variants = r.Sclient.variants;
    vps = float_of_int r.Sclient.variants /. Float.max r.Sclient.wall_s 1e-9;
    lowering_runs = r.Sclient.lowering_runs;
    digests = List.rev !digests;
  }

type cell = {
  jobs : int;
  cold : replay;
  warm : replay;
  mismatches : int;  (* vs the serial oracle *)
}

let measure ~reqs jobs =
  let socket = socket_path () in
  let pid = fork_daemon ~socket ~jobs in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let fd = Sclient.connect ~retry_for:20.0 (Sdaemon.Unix_sock socket) in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let cold = timed_replay fd reqs in
          let warm = timed_replay fd reqs in
          (* Untimed oracle pass: every digest, at this -j, against a
             serial in-process build. *)
          let oracle = Sclient.replay ~verify:true fd reqs in
          Sclient.shutdown fd;
          { jobs; cold; warm; mismatches = oracle.Sclient.digest_mismatches }))

let check_cell (c : cell) =
  let cell = Printf.sprintf "serve/-j%d" c.jobs in
  if c.warm.lowering_runs <> 0 then
    Suite.record_failure ~cell
      (Printf.sprintf "warm replay reported %d lowering run(s), want 0"
         c.warm.lowering_runs);
  if c.cold.digests <> c.warm.digests then
    Suite.record_failure ~cell "warm digests differ from cold digests";
  if c.mismatches <> 0 then
    Suite.record_failure ~cell
      (Printf.sprintf "%d digest mismatch(es) vs the serial oracle"
         c.mismatches)

(* ---- population at scale ---- *)

let population_thresholds n =
  let frac pct = max 2 (n * pct / 100) in
  List.sort_uniq compare ([ 2; 5; 12 ] @ [ frac 8; frac 20; frac 48 ])

let population_at_scale (p : Suite.prepared) ~n =
  let thresholds = population_thresholds n in
  let t0 = Unix.gettimeofday () in
  (* One pool task per variant: diversify, scan, return the plain
     (offset, sequence) keys — build and census fan out together. *)
  let outcomes =
    Pool.run ~jobs:!Suite.jobs
      (List.init n (fun version () ->
           let image, _ =
             Driver.diversify_linked p.Suite.compiled
               ~config:(List.assoc "p0-30" Suite.configs)
               ~profile:p.Suite.profile ~version
           in
           Population.section_keys image.Link.text))
  in
  let keys =
    List.map
      (function
        | Pool.Done k -> k
        | o -> failwith ("population task: " ^ Pool.outcome_to_string o))
      outcomes
  in
  let report = Population.of_keys ~thresholds keys in
  (report, Unix.gettimeofday () -. t0)

(* ---- the experiment ---- *)

let replay_counts (r : replay) =
  Jsonw.Obj
    [
      ("variants", Jsonw.int r.variants);
      ("lowering_runs", Jsonw.int r.lowering_runs);
    ]

let replay_timing (r : replay) =
  Jsonw.Obj
    [
      ("wall_s", Jsonw.Float r.wall_s);
      ("variants_per_sec", Jsonw.Float r.vps);
    ]

let run () =
  let workloads =
    List.map (fun (w : Workload.t) -> w.Workload.name) (Suite.workloads ())
  in
  let reqs =
    Sclient.trace ~seed:trace_seed ~workloads ~config:"p0-30" ~requests
      ~versions_per_request ~version_space ~want_images:false
  in
  Format.printf
    "@.Variant serving: %d-request trace (%d variants), cold vs warm \
     daemon@."
    requests
    (requests * versions_per_request);
  Suite.hr Format.std_formatter;
  Format.printf "%-6s %12s %12s %10s %12s@." "jobs" "cold-v/s" "warm-v/s"
    "ratio" "warm-lowers";
  let cells =
    List.map
      (fun jobs ->
        let c = measure ~reqs jobs in
        check_cell c;
        Format.printf "%-6d %12.1f %12.1f %9.1fx %12d@." c.jobs c.cold.vps
          c.warm.vps (c.warm.vps /. Float.max c.cold.vps 1e-9)
          c.warm.lowering_runs;
        c)
      jobs_grid
  in
  Suite.hr Format.std_formatter;
  let ratio_at_j1 =
    match cells with
    | c :: _ -> c.warm.vps /. Float.max c.cold.vps 1e-9
    | [] -> 0.0
  in
  Format.printf "warm/cold throughput ratio at -j 1: %.1fx@." ratio_at_j1;
  (* The population-at-scale survivor curve. *)
  let n = !Suite.serve_population in
  let p = Suite.prepared (List.hd (Suite.workloads ())) in
  let report, pop_wall = population_at_scale p ~n in
  Format.printf
    "@.Survivor curve, %s, %d versions (p0-30), built through the pool in \
     %.1fs:@."
    p.Suite.workload.Workload.name n pop_wall;
  List.iter
    (fun (k, count) -> Format.printf "  >=%4d of %d: %6d gadgets@." k n count)
    report.Population.at_least;
  let per_cell f =
    Jsonw.List
      (List.map (fun c -> Jsonw.Obj (("jobs", Jsonw.int c.jobs) :: f c)) cells)
  in
  Suite.write_report ~experiment:"serve"
    ~deterministic:
      [
        ("config", Jsonw.Str "p0-30");
        ("workloads", Jsonw.List (List.map (fun w -> Jsonw.Str w) workloads));
        ("requests", Jsonw.int requests);
        ("versions_per_request", Jsonw.int versions_per_request);
        ("version_space", Jsonw.int version_space);
        ("trace_seed", Jsonw.Str (Int64.to_string trace_seed));
        ( "grid",
          per_cell (fun c ->
              [
                ("cold", replay_counts c.cold);
                ("warm", replay_counts c.warm);
                ("digest_mismatches", Jsonw.int c.mismatches);
                ( "warm_matches_cold",
                  Jsonw.Bool (c.cold.digests = c.warm.digests) );
              ]) );
        ( "population",
          Jsonw.Obj
            [
              ("workload", Jsonw.Str p.Suite.workload.Workload.name);
              ("n", Jsonw.int report.Population.population);
              ( "at_least",
                Jsonw.List
                  (List.map
                     (fun (k, count) ->
                       Jsonw.Obj
                         [ ("k", Jsonw.int k); ("gadgets", Jsonw.int count) ])
                     report.Population.at_least) );
            ] );
        ("metrics", Metrics.dump ());
      ]
    ~wall_clock:
      [
        ( "grid",
          per_cell (fun c ->
              [
                ("cold", replay_timing c.cold);
                ("warm", replay_timing c.warm);
                ( "warm_cold_ratio",
                  Jsonw.Float (c.warm.vps /. Float.max c.cold.vps 1e-9) );
              ]) );
        ("warm_cold_ratio", Jsonw.Float ratio_at_j1);
        ("population", Jsonw.Obj [ ("wall_s", Jsonw.Float pop_wall) ]);
      ]
    ()
