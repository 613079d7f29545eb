(* CI serve smoke: the variant-serving daemon end to end, asserted.

   Fork one daemon (cold caches, -j 2), replay a seeded 8-request trace
   twice from this process, and hold the daemon to its contract:

     - every digest equals the serial in-process oracle's (checked on
       the second pass, with image payloads decoded and re-hashed);
     - the second (warm) pass reports exactly zero lowering runs;
     - warm digests are byte-identical to cold digests;
     - nothing is shed and nothing errors at this load.

   Exits 1 (failing the CI job) on any violation, and writes the
   replay and daemon statistics as a JSON artifact for upload. *)

let failures = ref 0

let check what ok detail =
  Printf.printf "%s %s%s\n"
    (if ok then "ok  " else "FAIL")
    what
    (if detail = "" then "" else ": " ^ detail);
  if not ok then incr failures

let () =
  let out = ref "BENCH_serve_smoke.json" in
  let workloads = ref "429.mcf,470.lbm" in
  let specs =
    [
      ("--out", Arg.Set_string out, "FILE  write replay statistics JSON");
      ("--workloads", Arg.Set_string workloads, "NAMES  trace workload pool");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serve_smoke [--out FILE] [--workloads NAMES]";

  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psd-serve-smoke-%d.sock" (Unix.getpid ()))
  in
  let addr = Sdaemon.Unix_sock socket in
  flush stdout;
  let pid =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            Driver.clear_caches ();
            Sdaemon.run
              { (Sdaemon.default_cfg addr) with Sdaemon.jobs = Pool.Jobs 2 };
            0
          with _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let reqs =
        Sclient.trace ~seed:2026L
          ~workloads:
            (List.filter
               (fun s -> s <> "")
               (List.map String.trim (String.split_on_char ',' !workloads)))
          ~config:"p0-30" ~requests:8 ~versions_per_request:5
          ~version_space:40 ~want_images:true
      in
      let fd = Sclient.connect ~retry_for:20.0 addr in
      let cold_digests = ref [] in
      let cold =
        Sclient.replay
          ~on_built:(fun b ->
            List.iter
              (fun (v : Sproto.variant) ->
                cold_digests := v.Sproto.digest :: !cold_digests)
              b.Sproto.variants)
          fd reqs
      in
      let warm_digests = ref [] in
      let warm =
        Sclient.replay ~verify:true
          ~on_built:(fun b ->
            List.iter
              (fun (v : Sproto.variant) ->
                warm_digests := v.Sproto.digest :: !warm_digests)
              b.Sproto.variants)
          fd reqs
      in
      let stats = Sclient.stats fd in
      Sclient.shutdown fd;
      Unix.close fd;

      Printf.printf "serve smoke: %d requests x2, %d variants per pass\n"
        cold.Sclient.requests cold.Sclient.variants;
      check "all cold requests built"
        (cold.Sclient.built = List.length reqs
        && cold.Sclient.shed = 0 && cold.Sclient.errors = 0)
        (Printf.sprintf "built %d, shed %d, errors %d" cold.Sclient.built
           cold.Sclient.shed cold.Sclient.errors);
      check "cold pass lowered something" (cold.Sclient.lowering_runs > 0)
        (string_of_int cold.Sclient.lowering_runs);
      check "warm pass lowered nothing" (warm.Sclient.lowering_runs = 0)
        (string_of_int warm.Sclient.lowering_runs);
      check "warm digests byte-identical to cold"
        (!cold_digests = !warm_digests)
        "";
      check "digests match the serial oracle"
        (warm.Sclient.digest_mismatches = 0)
        (Printf.sprintf "%d mismatch(es)" warm.Sclient.digest_mismatches);

      let j =
        Jsonw.Obj
          [
            ("schema", Jsonw.Str "psd-serve-smoke/1");
            ("workloads", Jsonw.Str !workloads);
            ("requests", Jsonw.int cold.Sclient.requests);
            ( "cold",
              Jsonw.Obj
                [
                  ("wall_s", Jsonw.Float cold.Sclient.wall_s);
                  ("variants", Jsonw.int cold.Sclient.variants);
                  ("lowering_runs", Jsonw.int cold.Sclient.lowering_runs);
                ] );
            ( "warm",
              Jsonw.Obj
                [
                  ("wall_s", Jsonw.Float warm.Sclient.wall_s);
                  ("variants", Jsonw.int warm.Sclient.variants);
                  ("lowering_runs", Jsonw.int warm.Sclient.lowering_runs);
                ] );
            ("digest_mismatches", Jsonw.int warm.Sclient.digest_mismatches);
            ( "daemon",
              Jsonw.Obj
                [
                  ("requests", Jsonw.Int stats.Sproto.requests);
                  ("built_variants", Jsonw.Int stats.Sproto.built_variants);
                  ("shed", Jsonw.Int stats.Sproto.shed);
                  ("errors", Jsonw.Int stats.Sproto.errors);
                  ("store_entries", Jsonw.int stats.Sproto.store_entries);
                ] );
            ("ok", Jsonw.Bool (!failures = 0));
          ]
      in
      let oc = open_out !out in
      Jsonw.to_channel oc j;
      output_char oc '\n';
      close_out oc;
      Printf.printf "serve smoke stats written to %s\n" !out;
      if !failures > 0 then exit 1)
