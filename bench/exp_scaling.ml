(* parallel-scaling: wall-clock of the three pooled grids — bench cells,
   population scans, fuzz campaigns — at -j 1/2/4 (and auto when it
   differs), with a determinism check: every parallel run must digest
   identically to its serial run.  Writes parallel-scaling.json under
   --out-dir (reference report: BENCH_PR4.json).

   Speedups are honest about the machine: the report records the core
   count, and on a single-core container every speedup is ~1x by
   construction — the interesting signal there is the determinism column
   and the fork/marshal overhead staying small. *)

type grid_run = {
  g_jobs : int;  (* what the setting resolved to *)
  g_auto : bool;  (* the -j auto row *)
  g_seconds : float;
  g_identical : bool;  (* digests equal to the serial run's *)
}

let time f =
  let t = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t)

(* Structural digest of a grid's full result — witness that a parallel
   run produced exactly the serial artifacts.  No_sharing matters:
   results that crossed a worker pipe lose physical sharing (each task's
   strings are fresh copies), and the default marshal format encodes
   sharing, so without it two structurally equal result sets digest
   differently. *)
let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let job_settings () =
  let auto = Pool.auto_jobs () in
  let fixed = [ Pool.Jobs 1; Pool.Jobs 2; Pool.Jobs 4 ] in
  let settings = List.map (fun j -> (j, false)) fixed in
  if List.mem auto [ 1; 2; 4 ] then settings
  else settings @ [ (Pool.Auto, true) ]

let resolve = function Pool.Auto -> Pool.auto_jobs () | Pool.Jobs n -> n

(* Run one grid at every jobs setting; the serial (first) digest is the
   reference the others are compared against. *)
let measure ~name ~tasks (runner : Pool.jobs -> string) =
  let runs, _ =
    List.fold_left
      (fun (acc, reference) (jobs, is_auto) ->
        let d, seconds = time (fun () -> runner jobs) in
        let reference = match reference with None -> Some d | r -> r in
        let row =
          {
            g_jobs = resolve jobs;
            g_auto = is_auto;
            g_seconds = seconds;
            g_identical = Some d = reference;
          }
        in
        (row :: acc, reference))
      ([], None) (job_settings ())
  in
  (name, tasks, List.rev runs)

let fail_cell o = failwith ("parallel-scaling: " ^ Pool.outcome_to_string o)
let cell = function Pool.Done v -> v | o -> fail_cell o

(* Grid 1 — bench cells: one task per workload, each running the
   baseline plus one diversified version per config on the ref input. *)
let bench_grid prepared jobs =
  digest
    (List.map cell
       (Pool.map ~jobs
          (fun p ->
            let w = p.Suite.workload in
            let base =
              Driver.run_image p.Suite.baseline ~args:w.Workload.ref_args
            in
            let per_config =
              List.map
                (fun (cname, config) ->
                  let r =
                    Suite.run_version p config 0 ~args:w.Workload.ref_args
                  in
                  (cname, r.Sim.cycles, r.Sim.nops_retired))
                Suite.configs
            in
            (w.Workload.name, base.Sim.cycles, per_config))
          prepared))

(* Grid 2 — population scan: one task per diversified version
   (diversify + link + gadget scan), merged in the parent. *)
let population_grid p jobs =
  let config = List.assoc "p0-30" Suite.configs in
  let keyed =
    List.map cell
      (Pool.map ~jobs
         (fun version ->
           let image, _ =
             Driver.diversify_linked p.Suite.compiled ~config
               ~profile:p.Suite.profile ~version
           in
           Population.section_keys image.Link.text)
         (List.init Suite.security_population Fun.id))
  in
  digest (Population.of_keys ~thresholds:[ 2; 5; 12 ] keyed)

(* Grid 3 — fuzz campaign: one task per generated program. *)
let fuzz_grid jobs =
  let c = Fuzz.run ~jobs ~shrink:false ~seed:2024L ~count:40 () in
  digest
    ( c.Fuzz.checked,
      c.Fuzz.runs,
      c.Fuzz.skips,
      List.map Fuzz.reproducer c.Fuzz.findings,
      c.Fuzz.errors )

let run () =
  let cores = Pool.auto_jobs () in
  Format.printf
    "@.Parallel scaling: the three pooled grids at each -j (backend %s, \
     %d core%s)@."
    (Pool.backend_name ()) cores
    (if cores = 1 then "" else "s");
  Suite.hr Format.std_formatter;
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let grids =
    [
      measure ~name:"bench"
        ~tasks:(List.length prepared)
        (bench_grid prepared);
      measure ~name:"population" ~tasks:Suite.security_population
        (population_grid (List.hd prepared));
      measure ~name:"fuzz" ~tasks:40 fuzz_grid;
    ]
  in
  let serial_seconds runs =
    match runs with r :: _ -> r.g_seconds | [] -> 0.0
  in
  List.iter
    (fun (name, tasks, runs) ->
      let s1 = serial_seconds runs in
      Format.printf "%-12s (%d tasks)@." name tasks;
      List.iter
        (fun r ->
          Format.printf "  -j %d%-5s %8.2fs  x%.2f  %s@." r.g_jobs
            (if r.g_auto then " auto" else "")
            r.g_seconds
            (if r.g_seconds > 0.0 then s1 /. r.g_seconds else 1.0)
            (if r.g_identical then "identical" else "DIVERGED"))
        runs)
    grids;
  let diverged =
    List.exists
      (fun (_, _, runs) -> List.exists (fun r -> not r.g_identical) runs)
      grids
  in
  if diverged then
    Suite.record_failure ~cell:"parallel-scaling/determinism"
      "parallel run diverged from serial";
  (* One entry per grid and -j row in both sections; only the timings
     (and the speedups derived from them) are wall clock. *)
  let per_grid row =
    Jsonw.List
      (List.map
         (fun (name, tasks, runs) ->
           let s1 = serial_seconds runs in
           Jsonw.Obj
             [
               ("name", Jsonw.Str name);
               ("tasks", Jsonw.int tasks);
               ( "runs",
                 Jsonw.List
                   (List.map
                      (fun r ->
                        Jsonw.Obj
                          ([
                             ("jobs", Jsonw.int r.g_jobs);
                             ("auto", Jsonw.Bool r.g_auto);
                           ]
                          @ row s1 r))
                      runs) );
             ])
         grids)
  in
  Suite.write_report ~experiment:"parallel-scaling"
    ~deterministic:
      [
        ("cores", Jsonw.int cores);
        ("backend", Jsonw.Str (Pool.backend_name ()));
        ("workloads", Jsonw.int (List.length prepared));
        ( "grids",
          per_grid (fun _ r ->
              [ ("identical_to_serial", Jsonw.Bool r.g_identical) ]) );
      ]
    ~wall_clock:
      [
        ( "grids",
          per_grid (fun s1 r ->
              [
                ("seconds", Jsonw.Float r.g_seconds);
                ( "speedup_vs_serial",
                  Jsonw.Float
                    (if r.g_seconds > 0.0 then s1 /. r.g_seconds else 1.0) );
              ]) );
      ]
    ()
