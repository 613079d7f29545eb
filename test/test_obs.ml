(* Observability-layer tests: the monotonic clock, the tracer, the
   metrics registry, the memo table, and — the load-bearing property — that runtime
   profiles are a lossless decomposition of the simulator's whole-run
   counters (per-function sums equal Sim.result totals, per-block sums
   equal per-function totals) across workloads and configurations.  All
   JSON sinks are round-tripped through the independent Minijson
   parser. *)

let parses name s =
  match Minijson.parse s with
  | v -> v
  | exception Minijson.Bad msg ->
      Alcotest.failf "%s: ill-formed JSON (%s): %s" name msg
        (String.sub s 0 (min 200 (String.length s)))

(* ------------------------------------------------------------------ *)
(* Clock. *)

let test_clock_monotonic () =
  let prev = ref (Clock.now_s ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_s () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_s 0.0 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Trace. *)

let test_trace_disabled_is_noop () =
  Trace.reset ();
  let s = Trace.begin_span "dead" in
  Trace.end_span s;
  Trace.instant "dead too";
  Trace.with_span "dead three" (fun () -> ());
  Alcotest.(check int) "no events collected" 0 (Trace.event_count ())

let test_trace_export () =
  Trace.reset ();
  Trace.start ();
  Trace.with_span "outer" ~args:[ ("k", "v\"quoted\"") ] (fun () ->
      Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 42));
      Trace.instant "marker" ~args:[ ("n", "1") ]);
  (* An exception must still close the span. *)
  (try Trace.with_span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Trace.stop ();
  Alcotest.(check int) "four events" 4 (Trace.event_count ());
  let json = parses "trace" (Trace.export_json ()) in
  let events = Minijson.(to_list (member "traceEvents" json)) in
  Alcotest.(check int) "traceEvents length" 4 (List.length events);
  let names = List.map Minijson.(fun e -> to_str (member "name" e)) events in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("event " ^ expected) true
        (List.mem expected names))
    [ "outer"; "inner"; "marker"; "raises" ];
  (* Spans close in LIFO order, so "inner" precedes "outer" in the
     chronological-by-end event list; check both timestamps are sane. *)
  List.iter
    (fun e ->
      let ts = Minijson.(to_num (member "ts" e)) in
      Alcotest.(check bool) "ts >= 0" true (ts >= 0.0))
    events;
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let test_metrics_counters () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:41L c;
  Alcotest.(check int64) "counter accumulates" 42L (Metrics.counter_value c);
  Alcotest.(check bool) "find-or-create returns same counter" true
    (Metrics.counter_value (Metrics.counter "test.counter") = 42L);
  let h = Metrics.histogram "test.hist" in
  List.iter (fun v -> Metrics.observe h (float_of_int v)) [ 5; 1; 3; 2; 4 ];
  Alcotest.(check int) "histogram count" 5 (Metrics.histogram_count h);
  let json = parses "metrics" (Metrics.dump_json ()) in
  let counter_v =
    Minijson.(to_num (member "test.counter" (member "counters" json)))
  in
  Alcotest.(check (float 0.0)) "counter in dump" 42.0 counter_v;
  let hist = Minijson.(member "test.hist" (member "histograms" json)) in
  Alcotest.(check (float 0.0)) "hist sum" 15.0
    Minijson.(to_num (member "sum" hist));
  Alcotest.(check (float 0.0)) "hist min" 1.0
    Minijson.(to_num (member "min" hist));
  Alcotest.(check (float 0.0)) "hist max" 5.0
    Minijson.(to_num (member "max" hist));
  Alcotest.(check (float 0.0)) "hist p50" 3.0
    Minijson.(to_num (member "p50" hist));
  Metrics.reset ();
  Alcotest.(check int64) "reset zeroes" 0L (Metrics.counter_value c);
  Alcotest.(check int) "reset empties" 0 (Metrics.histogram_count h)

let test_driver_cache_metrics () =
  Metrics.reset ();
  Driver.clear_caches ();
  let src = "int main(int x) { return x + 1; }" in
  let _ = Driver.compile_cached ~name:"cache-metric-test" src in
  let _ = Driver.compile_cached ~name:"cache-metric-test" src in
  let _ = Driver.compile_cached ~name:"cache-metric-test" src in
  Alcotest.(check int64) "one miss" 1L
    (Metrics.counter_value (Metrics.counter "driver.compile_cache.miss"));
  Alcotest.(check int64) "two hits" 2L
    (Metrics.counter_value (Metrics.counter "driver.compile_cache.hit"))

let test_pool_ships_zero_registrations () =
  (* Tasks that register a counter and a histogram but record nothing
     leave the same registry under a two-worker pool as in-process. *)
  let tasks =
    List.init 4 (fun i () ->
        ignore (Metrics.counter "obs.test.zero_counter");
        ignore (Metrics.histogram "obs.test.zero_hist");
        i)
  in
  let dump_under jobs =
    Metrics.reset ();
    List.iter
      (function Pool.Done _ -> () | _ -> Alcotest.fail "task failed")
      (Pool.run ~jobs tasks);
    Metrics.dump_json ()
  in
  (* Parallel first: a serial run registers the names in this process
     and would hide a worker that fails to ship them. *)
  let parallel = dump_under (Pool.Jobs 2) in
  let serial = dump_under (Pool.Jobs 1) in
  Metrics.reset ();
  Alcotest.(check string) "-j 2 registry equals serial" serial parallel

(* ------------------------------------------------------------------ *)
(* Memo. *)

let registered name =
  match Metrics.dump () with
  | Jsonw.Obj sections -> (
      match List.assoc_opt "counters" sections with
      | Some (Jsonw.Obj kvs) -> List.mem_assoc name kvs
      | _ -> false)
  | _ -> false

let test_memo_bounded_lru () =
  let m = Memo.create ~capacity:2 ~metric:"obs.test.memo_lru" () in
  let add k = ignore (Memo.find_or_add m k (fun () -> k * 10)) in
  add 1;
  add 2;
  ignore (Memo.find m 1) (* touch 1: 2 becomes the LRU *);
  add 3;
  Alcotest.(check int) "bounded at capacity" 2 (Memo.length m);
  Alcotest.(check (option int)) "LRU evicted" None (Memo.find m 2);
  Alcotest.(check (option int)) "touched key kept" (Some 10) (Memo.find m 1);
  Alcotest.(check (option int)) "newest kept" (Some 30) (Memo.find m 3);
  Alcotest.(check int64) "one eviction counted" 1L
    (Metrics.counter_value (Metrics.counter "obs.test.memo_lru.evict"))

let test_memo_unbounded () =
  let m = Memo.create ~metric:"obs.test.memo_unbounded" () in
  for k = 1 to 1000 do
    ignore (Memo.find_or_add m k (fun () -> -k))
  done;
  Alcotest.(check int) "nothing evicted" 1000 (Memo.length m);
  Alcotest.(check (option int)) "first key kept" (Some (-1)) (Memo.find m 1);
  Alcotest.(check bool) "misses counted" true
    (registered "obs.test.memo_unbounded.miss");
  Alcotest.(check bool) "no evict name registered" false
    (registered "obs.test.memo_unbounded.evict")

let test_memo_raising_thunk () =
  let m = Memo.create () in
  (match Memo.find_or_add m "k" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the thunk's exception must propagate");
  Alcotest.(check int) "no entry left" 0 (Memo.length m);
  Alcotest.(check int) "a later call computes" 7
    (Memo.find_or_add m "k" (fun () -> 7));
  (* The thunk runs outside the lock, so it may use the table itself. *)
  Alcotest.(check int) "re-entrant thunk" 8
    (Memo.find_or_add m "j" (fun () ->
         Memo.find_or_add m "k" (fun () -> 0) + 1))

let test_memo_clear () =
  let m = Memo.create ~capacity:4 () in
  let runs = ref 0 in
  let get k = Memo.find_or_add m k (fun () -> incr runs; k) in
  ignore (get 1);
  ignore (get 2);
  Memo.clear m;
  Alcotest.(check int) "empty after clear" 0 (Memo.length m);
  Alcotest.(check (option int)) "entry gone" None (Memo.find m 1);
  ignore (get 1);
  Alcotest.(check int) "recomputed after clear" 3 !runs

(* ------------------------------------------------------------------ *)
(* JSON sinks round-trip through the independent parser. *)

let test_cctx_json_well_formed () =
  let c =
    Driver.compile ~name:"json \"test\"\nprogram"
      "int main(int x) { int i; int s; s = 0; for (i = 0; i < x; i = i + 1) \
       { s = s + i; } return s; }"
  in
  let json = parses "Cctx.to_json" (Cctx.to_json c.Driver.cctx) in
  let summary = Minijson.(to_list (member "summary" json)) in
  Alcotest.(check bool) "has summary rows" true (List.length summary > 0);
  let runs = Minijson.(to_list (member "runs" json)) in
  Alcotest.(check bool) "has run rows" true (List.length runs > 0)

(* ------------------------------------------------------------------ *)
(* Runtime profiles: lossless decomposition of the run counters. *)

let check_profile_sums ~what image (r : Sim.result) =
  let prof = Simprof.of_result image r in
  Alcotest.(check int64)
    (what ^ ": function insns sum to instructions")
    r.Sim.instructions prof.Simprof.total_insns;
  Alcotest.(check int64)
    (what ^ ": function nops sum to nops_retired")
    r.Sim.nops_retired prof.Simprof.total_nops;
  let rel_close a b =
    Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  Alcotest.(check bool)
    (what ^ ": function cycles sum to cycles")
    true
    (rel_close r.Sim.cycles prof.Simprof.total_cycles);
  (* Per-block rows decompose each function row exactly. *)
  List.iter
    (fun (row : Simprof.func_row) ->
      let bi =
        List.fold_left
          (fun acc (b : Simprof.block_row) -> Int64.add acc b.Simprof.b_insns)
          0L row.Simprof.blocks
      in
      let bn =
        List.fold_left
          (fun acc (b : Simprof.block_row) -> Int64.add acc b.Simprof.b_nops)
          0L row.Simprof.blocks
      in
      Alcotest.(check int64)
        (what ^ ": " ^ row.Simprof.fname ^ " block insns sum")
        row.Simprof.insns bi;
      Alcotest.(check int64)
        (what ^ ": " ^ row.Simprof.fname ^ " block nops sum")
        row.Simprof.nops bn)
    prof.Simprof.rows;
  (* And the JSON export is well-formed. *)
  let json = parses (what ^ " Simprof.to_json") (Simprof.to_json prof) in
  Alcotest.(check string)
    (what ^ ": schema")
    "psd-sim-profile/1"
    Minijson.(to_str (member "schema" json))

let test_profile_sums_across_configs () =
  let configs =
    [
      ("baseline", None);
      ("p50", List.assoc_opt "p50" Config.paper_configs);
      ("p0-30", List.assoc_opt "p0-30" Config.paper_configs);
      ("uniform:0.8+xchg", Some { (Config.uniform 0.8) with use_xchg = true });
    ]
  in
  List.iter
    (fun wname ->
      let w = Workloads.find wname in
      let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
      let profile = Driver.train_cached c ~args:w.Workload.train_args in
      List.iter
        (fun (cname, config) ->
          let what = w.Workload.name ^ "/" ^ cname in
          let image =
            match config with
            | None -> Driver.link_baseline_cached c
            | Some config ->
                fst (Driver.diversify_linked c ~config ~profile ~version:1)
          in
          let r =
            Driver.run_image image ~profile:true ~args:w.Workload.train_args
          in
          Alcotest.(check bool)
            (what ^ ": profile present")
            true
            (r.Sim.exec_profile <> None);
          check_profile_sums ~what image r)
        configs)
    [ "429.mcf"; "470.lbm"; "462.libquantum" ]

let test_unprofiled_run_has_no_profile () =
  let w = Workloads.find "429.mcf" in
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  let image = Driver.link_baseline_cached c in
  let r = Driver.run_image image ~args:w.Workload.train_args in
  Alcotest.(check bool) "no profile by default" true
    (r.Sim.exec_profile = None);
  match Simprof.of_result image r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Simprof.of_result should reject unprofiled runs"

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "disabled trace is a no-op" `Quick
          test_trace_disabled_is_noop;
        Alcotest.test_case "trace export round-trips" `Quick test_trace_export;
        Alcotest.test_case "metrics counters and histograms" `Quick
          test_metrics_counters;
        Alcotest.test_case "driver cache hit/miss metrics" `Quick
          test_driver_cache_metrics;
        Alcotest.test_case "pool ships zero-valued registrations" `Quick
          test_pool_ships_zero_registrations;
        Alcotest.test_case "memo bounded LRU" `Quick test_memo_bounded_lru;
        Alcotest.test_case "memo unbounded never evicts" `Quick
          test_memo_unbounded;
        Alcotest.test_case "memo raising thunk leaves no entry" `Quick
          test_memo_raising_thunk;
        Alcotest.test_case "memo clear" `Quick test_memo_clear;
        Alcotest.test_case "Cctx.to_json is well-formed" `Quick
          test_cctx_json_well_formed;
        Alcotest.test_case "runtime profile sums (workloads x configs)" `Slow
          test_profile_sums_across_configs;
        Alcotest.test_case "unprofiled run has no profile" `Quick
          test_unprofiled_run_has_no_profile;
      ] );
  ]
