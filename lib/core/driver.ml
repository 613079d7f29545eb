type compiled = {
  name : string;
  modul : Ir.modul;
  objects : Objfile.func_obj list;
  asm : Asm.func list;
  main_arity : int;
  cctx : Cctx.t;
  pipeline : Pipeline.descr;
  cache_key : string;
}

let modul_size (m : Ir.modul) =
  List.fold_left (fun n f -> n + Ir.size f) 0 m.Ir.funcs

let cache_key_of ~descr ~verify_each ~name src =
  Printf.sprintf "%s|%s|%b|%s" name
    (Pipeline.descr_to_string descr)
    verify_each
    (Digest.to_hex (Digest.string src))

(* ---- separate compilation: per-function lowering through the
   content-addressed artifact store ---- *)

let ir_digest_of (irf : Ir.func) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Ir.pp_func irf))

(* Lower one optimized function to a relocatable object, reusing a
   stored artifact when the function's full provenance (IR digest ×
   pipeline × object-format version — lowering is
   diversification-independent) has been lowered before.  Only a miss
   runs isel/liveness/regalloc/emit (and thus records machine-stage
   cctx stats and bumps the machine.<stage>.runs counters). *)
let lower_func ~cctx ~descr (irf : Ir.func) =
  let ir_digest = ir_digest_of irf in
  let pipeline = Pipeline.descr_to_string descr in
  Memo.find_or_add Store.objects (Store.key ~ir_digest ~pipeline) (fun () ->
      let asm = Stages.func ~cctx irf in
      Objfile.of_asm ~ir_digest ~pipeline ~arity:(List.length irf.Ir.params)
        asm)

let lower_modul ~cctx ~descr (m : Ir.modul) =
  List.map (lower_func ~cctx ~descr) m.Ir.funcs

let compile ?(opt = Pipeline.O2) ?passes ?(verify_each = false) ~name src =
  let descr =
    match passes with Some d -> d | None -> Pipeline.of_level opt
  in
  Trace.with_span "compile"
    ~args:
      [ ("program", name); ("pipeline", Pipeline.descr_to_string descr) ]
    (fun () ->
      let cctx = Cctx.create name in
      let modul, dt =
        Trace.with_span "front" ~args:[ ("program", name) ] (fun () ->
            Cctx.timed (fun () -> Minic.compile_exn src))
      in
      Cctx.record cctx
        {
          Cctx.stage = "front";
          pass = "parse+lower";
          func = "*";
          time_s = dt;
          items_before = 0;
          items_after = modul_size modul;
          bytes = 0;
          changed = true;
        };
      let modul =
        Trace.with_span "ir-pipeline" ~args:[ ("program", name) ] (fun () ->
            Pipeline.run ~cctx ~verify_each descr modul)
      in
      let (), dt = Cctx.timed (fun () -> Verify.check_exn modul) in
      Cctx.record cctx
        {
          Cctx.stage = "ir";
          pass = "verify";
          func = "*";
          time_s = dt;
          items_before = modul_size modul;
          items_after = modul_size modul;
          bytes = 0;
          changed = false;
        };
      let main =
        match Ir.find_func modul "main" with
        | f -> f
        | exception Not_found ->
            failwith (name ^ " has no main")
      in
      let objects =
        Trace.with_span "machine" ~args:[ ("program", name) ] (fun () ->
            lower_modul ~cctx ~descr modul)
      in
      {
        name;
        modul;
        objects;
        asm = List.map (fun (o : Objfile.func_obj) -> o.Objfile.asm) objects;
        main_arity = List.length main.params;
        cctx;
        pipeline = descr;
        cache_key = cache_key_of ~descr ~verify_each ~name src;
      })

(* ---- shared artifact caches (the evaluation harness recompiles each
   workload across many experiments; everything keys off cache_key) ---- *)

(* Every lookup lands in the metrics registry as a hit or a miss, so a
   bench dump shows exactly how much recompilation the caches saved. *)
let compile_cache : (string, compiled) Memo.t =
  Memo.create ~metric:"driver.compile_cache" ()

let profile_cache : (string, Profile.t) Memo.t =
  Memo.create ~metric:"driver.profile_cache" ()

let baseline_cache : (string, Link.image) Memo.t =
  Memo.create ~metric:"driver.baseline_cache" ()

let clear_caches ?(store = true) () =
  Memo.clear compile_cache;
  Memo.clear profile_cache;
  Memo.clear baseline_cache;
  if store then Memo.clear Store.objects

let compile_cached ?(opt = Pipeline.O2) ?passes ?(verify_each = false) ~name
    src =
  let descr =
    match passes with Some d -> d | None -> Pipeline.of_level opt
  in
  let key = cache_key_of ~descr ~verify_each ~name src in
  Memo.find_or_add compile_cache key (fun () ->
      compile ~opt ?passes ~verify_each ~name src)

let train c ~args =
  Trace.with_span "train" ~args:[ ("program", c.name) ] (fun () ->
      Profile.collect c.modul ~entry:"main" ~args)

let train_many c ~args_list =
  Trace.with_span "train" ~args:[ ("program", c.name) ] (fun () ->
      Profile.collect_many c.modul ~entry:"main" ~args_list)

let train_cached c ~args =
  let key =
    c.cache_key ^ "|" ^ String.concat "," (List.map Int32.to_string args)
  in
  Memo.find_or_add profile_cache key (fun () -> train c ~args)

let link_baseline c =
  let image, dt =
    Trace.with_span "link" ~args:[ ("program", c.name) ] (fun () ->
        Cctx.timed (fun () ->
            Link.link_objects ~expect_main_arity:c.main_arity
              ~objects:c.objects ~globals:c.modul.globals ()))
  in
  Cctx.record c.cctx
    {
      Cctx.stage = "link";
      pass = "layout";
      func = "*";
      time_s = dt;
      items_before = List.length c.asm;
      items_after = List.length image.Link.symbols;
      bytes = String.length image.Link.text;
      changed = true;
    };
  image

let link_baseline_cached c =
  Memo.find_or_add baseline_cache c.cache_key (fun () -> link_baseline c)

let diversify_linked c ~config ~profile ~version =
  let cname = Config.name config in
  Trace.with_span "diversify"
    ~args:
      [ ("program", c.name); ("config", cname);
        ("version", string_of_int version) ]
    (fun () ->
      (* Every enabled diversity pass (see Divpass) over the whole
         program, each under its own independent RNG stream.  The
         per-variant account is the returned report; only the
         process-wide diversify.* metrics are recorded here. *)
      let ctx = { Divpass.prog = c.name; config; profile; version } in
      let funcs, report = Divpass.run_all ctx c.asm in
      List.iter
        (fun (s : Divpass.stats) ->
          if s.Divpass.pass <> "nop" then
            Metrics.incr
              ~by:(Int64.of_int s.Divpass.changed)
              (Metrics.counter
                 (Printf.sprintf "diversify.%s.changed.%s" s.Divpass.pass
                    cname)))
        report;
      let nop = Divpass.nop_stats report in
      Metrics.incr
        ~by:(Int64.of_int nop.Divpass.changed)
        (Metrics.counter ("diversify.nops_inserted." ^ cname));
      Metrics.observe
        (Metrics.histogram ("diversify.nop_bytes." ^ cname))
        (float_of_int nop.Divpass.bytes_added);
      (* Re-wrap each diversified function as an object carrying its
         undiversified provenance, and compose with the memoized runtime
         objects: only the diversity passes and the relink ran — no
         isel/liveness/regalloc — which is the whole point of the
         separate-compilation pipeline. *)
      let objects =
        List.map2
          (fun (o : Objfile.func_obj) f ->
            Objfile.of_asm ~ir_digest:o.Objfile.meta.Objfile.ir_digest
              ~pipeline:o.Objfile.meta.Objfile.pipeline
              ~arity:o.Objfile.meta.Objfile.arity f)
          c.objects funcs
      in
      let image =
        Link.link_objects ~expect_main_arity:c.main_arity ~objects
          ~globals:c.modul.globals ()
      in
      (image, report))

let population c ~config ~profile ~n =
  List.init n (fun version ->
      fst (diversify_linked c ~config ~profile ~version))

let run_ir c ~args = Interp.run c.modul ~entry:"main" ~args

let run_image ?fuel ?profile ?sample_period image ~args =
  Trace.with_span "simulate" (fun () ->
      Sim.run ?fuel ?profile ?sample_period image ~args)

let record_profile ?fuel ?(sample_period = Sim.default_sample_period) ?config
    ?seed image ~workload ~args =
  let r =
    Trace.with_span "record-profile"
      ~args:[ ("workload", workload) ]
      (fun () -> Sim.run ?fuel ~sample_period image ~args)
  in
  (Sprof.of_run ~image ?config ?seed ~workload r, r)

let train_from_profile ?fresh ?previous c (sp : Sprof.t) =
  Trace.with_span "train-from-profile"
    ~args:[ ("program", c.name) ]
    (fun () ->
      Metrics.incr (Metrics.counter "driver.train_from_profile");
      (match fresh with
      | None -> ()
      | Some fresh ->
          let s = Sprof.staleness ~fresh sp in
          Metrics.observe
            (Metrics.histogram "pgo.staleness.coverage_pct")
            s.coverage_pct;
          Metrics.observe
            (Metrics.histogram "pgo.staleness.hot_overlap_pct")
            s.hot_overlap_pct;
          Metrics.observe
            (Metrics.histogram "pgo.staleness.mean_drift_pct")
            s.mean_drift_pct;
          Metrics.observe
            (Metrics.histogram "pgo.staleness.max_drift_pct")
            s.max_drift_pct);
      match previous with
      | Some prev when not (Sprof.materially_drifted ~previous:prev sp) ->
          Metrics.incr (Metrics.counter "pgo.retrain.kept");
          prev
      | _ ->
          Metrics.incr (Metrics.counter "pgo.retrain.applied");
          Sprof.to_profile sp)
