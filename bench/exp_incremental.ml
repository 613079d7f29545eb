(* Incremental builds: what the content-addressed function store buys.

   Protocol, per workload: build a 25-variant population twice.  Cold —
   every cache dropped, so the build pays isel/liveness/regalloc/emit
   for each function before diversifying.  Warm — program-level memos
   dropped but the function store kept (the separate-compilation
   scenario: same sources, new driver process), so the build must be
   pure store hits: zero lowering-stage runs, only NOP insertion and
   relink.  Wall-clock and per-stage Metrics deltas for both runs land
   in incremental.json (reference report: BENCH_PR5.json); the warm
   run's populations are digest-compared against the cold run's, so the
   speedup is for byte-identical output.

   Runs serially (never on the pool): the protocol clears process-wide
   caches between runs and measures wall-clock, both of which parallel
   workers would scramble. *)

let stages = [ "isel"; "liveness"; "regalloc"; "emit" ]

let stage_counts () =
  List.map
    (fun s ->
      (s, Metrics.counter_value (Metrics.counter ("machine." ^ s ^ ".runs"))))
    stages

let store_counts () =
  List.map
    (fun s -> (s, Metrics.counter_value (Metrics.counter ("obj.store." ^ s))))
    [ "hit"; "miss" ]

let delta before after =
  List.map2
    (fun (s, b) (s', a) ->
      assert (s = s');
      (s, Int64.to_int (Int64.sub a b)))
    before after

type run = {
  wall_s : float;
  stage_runs : (string * int) list;
  store : (string * int) list;
  texts : string list;  (* population .text digests, for cold/warm compare *)
}

let build_population (w : Workload.t) ~config =
  let s0 = stage_counts () and st0 = store_counts () in
  let t0 = Unix.gettimeofday () in
  let c = Driver.compile ~name:w.Workload.name w.Workload.source in
  let imgs =
    Driver.population c ~config ~profile:Profile.empty
      ~n:Suite.security_population
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    wall_s;
    stage_runs = delta s0 (stage_counts ());
    store = delta st0 (store_counts ());
    texts =
      List.map
        (fun (i : Link.image) -> Digest.to_hex (Digest.string i.Link.text))
        imgs;
  }

let measure (w : Workload.t) ~config =
  Driver.clear_caches ();
  let cold = build_population w ~config in
  Driver.clear_caches ~store:false ();
  let warm = build_population w ~config in
  (* The warm build must not lower anything... *)
  List.iter
    (fun stage ->
      let runs = List.assoc stage warm.stage_runs in
      if runs <> 0 then
        Suite.record_failure
          ~cell:("incremental/" ^ w.Workload.name)
          (Printf.sprintf "warm build ran machine.%s %d time(s)" stage runs))
    stages;
  (* ...or change a single byte of output. *)
  if cold.texts <> warm.texts then
    Suite.record_failure
      ~cell:("incremental/" ^ w.Workload.name)
      "warm population differs from cold population";
  (cold, warm)

let counts_json (r : run) =
  let ints l = Jsonw.Obj (List.map (fun (s, n) -> (s, Jsonw.int n)) l) in
  Jsonw.Obj [ ("stage_runs", ints r.stage_runs); ("store", ints r.store) ]

let run () =
  let config = List.assoc "p0-30" Suite.configs in
  Format.printf
    "@.Incremental builds: cold vs warm %d-variant population (config \
     p0-30);@.warm keeps the function store, so it must do zero \
     isel/liveness/regalloc@."
    Suite.security_population;
  Suite.hr Format.std_formatter;
  Format.printf "%-16s %9s %9s %8s %11s %11s@." "workload" "cold-s" "warm-s"
    "speedup" "cold-lowers" "warm-hits";
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let cold, warm = measure w ~config in
        Format.printf "%-16s %9.3f %9.3f %7.1fx %11d %11d@." w.Workload.name
          cold.wall_s warm.wall_s
          (cold.wall_s /. Float.max warm.wall_s 1e-9)
          (List.assoc "isel" cold.stage_runs)
          (List.assoc "hit" warm.store);
        (w, cold, warm))
      (Suite.workloads ())
  in
  Suite.hr Format.std_formatter;
  let total f = List.fold_left (fun a (_, c, w) -> a +. f c w) 0.0 rows in
  let cold_total = total (fun c _ -> c.wall_s)
  and warm_total = total (fun _ w -> w.wall_s) in
  Format.printf "total: cold %.3fs, warm %.3fs (%.1fx)@." cold_total warm_total
    (cold_total /. Float.max warm_total 1e-9);
  let speedup cold warm = Jsonw.Float (cold /. Float.max warm 1e-9) in
  let per_workload f =
    Jsonw.List
      (List.map
         (fun ((w : Workload.t), cold, warm) ->
           Jsonw.Obj (("name", Jsonw.Str w.Workload.name) :: f cold warm))
         rows)
  in
  Suite.write_report ~experiment:"incremental"
    ~deterministic:
      [
        ("population", Jsonw.int Suite.security_population);
        ("config", Jsonw.Str "p0-30");
        ( "workloads",
          per_workload (fun cold warm ->
              [ ("cold", counts_json cold); ("warm", counts_json warm) ]) );
        ("metrics", Metrics.dump ());
      ]
    ~wall_clock:
      [
        ( "workloads",
          per_workload (fun cold warm ->
              [
                ("cold_wall_s", Jsonw.Float cold.wall_s);
                ("warm_wall_s", Jsonw.Float warm.wall_s);
                ("speedup", speedup cold.wall_s warm.wall_s);
              ]) );
        ( "totals",
          Jsonw.Obj
            [
              ("cold_wall_s", Jsonw.Float cold_total);
              ("warm_wall_s", Jsonw.Float warm_total);
              ("speedup", speedup cold_total warm_total);
            ] );
      ]
    ()
