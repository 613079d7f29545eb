(* The parallel pool: result ordering, failure containment, worker-crash
   containment (including repeated crashes in one share), nested-use
   rejection — and the two determinism properties the whole subsystem
   exists to uphold: a parallel fuzz campaign equals the serial one
   byte-for-byte, and metrics merged from k workers equal a
   single-process run. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let outcome_label = function
  | Pool.Done _ -> "done"
  | Pool.Failed _ -> "failed"
  | Pool.Crashed _ -> "crashed"

let labels outcomes = List.map outcome_label outcomes

let test_ordering () =
  (* Results come back in task order no matter which worker ran what. *)
  let tasks =
    List.init 17 (fun i () ->
        (* skew the per-task cost so strides finish out of phase *)
        let spin = ref 0 in
        for _ = 1 to (17 - i) * 10_000 do Stdlib.incr spin done;
        i * i)
  in
  let expect = List.init 17 (fun i -> Pool.Done (i * i)) in
  List.iter
    (fun jobs ->
      let got = Pool.run ~jobs tasks in
      Alcotest.(check bool)
        (Printf.sprintf "ordered at -j %s" (Pool.jobs_to_string jobs))
        true (got = expect))
    [ Pool.Jobs 1; Pool.Jobs 3; Pool.Jobs 4 ]

let test_failure_containment () =
  (* A raising task is a Failed result for that task alone. *)
  let tasks =
    List.init 6 (fun i () -> if i = 2 then failwith "task 2 blew up" else i)
  in
  let got = Pool.run ~jobs:(Pool.Jobs 2) tasks in
  Alcotest.(check (list string))
    "one failure, rest done"
    [ "done"; "done"; "failed"; "done"; "done"; "done" ]
    (labels got);
  match List.nth got 2 with
  | Pool.Failed msg ->
      Alcotest.(check bool) "failure message kept" true
        (contains ~needle:"task 2 blew up" msg)
  | _ -> Alcotest.fail "expected Failed"

let test_crash_containment () =
  if not Sys.unix then ()
  else begin
    (* Task 1 SIGKILLs its own worker.  Its stride-mates (3 and 5 at
       -j 2) must still complete on the replacement worker. *)
    let tasks =
      List.init 6 (fun i () ->
          if i = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
          i + 100)
    in
    let got = Pool.run ~jobs:(Pool.Jobs 2) tasks in
    Alcotest.(check (list string))
      "crash contained to one task"
      [ "done"; "crashed"; "done"; "done"; "done"; "done" ]
      (labels got);
    Alcotest.(check bool)
      "stride-mates of the crashed task survived" true
      (List.nth got 3 = Pool.Done 103 && List.nth got 5 = Pool.Done 105)
  end

let test_repeated_crash () =
  if not Sys.unix then ()
  else begin
    (* Tasks 1, 3 and 5 each SIGKILL their own worker.  At -j 2 they are
       all worker 1's share: it is re-forked for [3; 5], again for [5],
       and its last task dies with nothing left to hand on.  Each death
       is charged to the task that caused it, not to a neighbour. *)
    let task i () =
      if i mod 2 = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
      i + 100
    in
    let got = Pool.run ~jobs:(Pool.Jobs 2) (List.init 6 task) in
    Alcotest.(check (list string))
      "each crash charged to its own task"
      [ "done"; "crashed"; "done"; "crashed"; "done"; "crashed" ]
      (labels got);
    Alcotest.(check bool)
      "the other share equals the serial run" true
      ([ List.nth got 0; List.nth got 2; List.nth got 4 ]
      = Pool.run ~jobs:(Pool.Jobs 1) [ task 0; task 2; task 4 ])
  end

let test_nested_rejection () =
  (* Inside a task, Pool.run must be rejected — on every backend. *)
  List.iter
    (fun jobs ->
      let got =
        Pool.run ~jobs
          [
            (fun () -> Pool.run ~jobs:(Pool.Jobs 2) [ (fun () -> 0) ]);
            (fun () -> [ Pool.Done 1 ]);
          ]
      in
      (match List.hd got with
      | Pool.Failed msg ->
          Alcotest.(check bool)
            "nested rejection message" true (contains ~needle:"nested" msg)
      | o -> Alcotest.fail ("expected Failed, got " ^ outcome_label o));
      Alcotest.(check bool)
        "sibling task unaffected" true
        (List.nth got 1 = Pool.Done [ Pool.Done 1 ]))
    [ Pool.Jobs 1; Pool.Jobs 2 ];
  (* ... and a direct nested call (not via a task) raises. *)
  let direct =
    Pool.run ~jobs:(Pool.Jobs 1)
      [ (fun () -> (try ignore (Pool.run [ (fun () -> 0) ]); false with Pool.Nested -> true)) ]
  in
  match direct with
  | [ Pool.Done _ ] -> ()
  | _ -> Alcotest.fail "direct nested call should be caught as Nested"

let test_large_results () =
  (* Two 8 MiB results cross the pipe in many 64 KiB reads and come back
     whole, in order, equal to the serial run. *)
  let tasks =
    List.init 2 (fun i () ->
        String.init (8 * 1024 * 1024) (fun j -> Char.chr ((i + (j * 7)) land 0xFF)))
  in
  Alcotest.(check bool)
    "-j 2 equals serial" true
    (Pool.run ~jobs:(Pool.Jobs 2) tasks = Pool.run ~jobs:(Pool.Jobs 1) tasks)

let test_unmarshalable_result () =
  (* A closure cannot cross the pipe: that task alone is Failed. *)
  let got =
    Pool.run ~jobs:(Pool.Jobs 2) [ (fun () -> Some Fun.id); (fun () -> None) ]
  in
  match got with
  | [ Pool.Failed msg; Pool.Done None ] ->
      Alcotest.(check bool)
        "names the cause" true
        (contains ~needle:"unmarshalable task result" msg)
  | _ -> Alcotest.fail ("unexpected " ^ String.concat "," (labels got))

(* ---- fuzz-campaign parity: Pool.run over the oracle at -j 4 equals
   the serial run byte-for-byte on 50 seeded programs ---- *)

let test_fuzz_parity () =
  let campaign jobs =
    Fuzz.run ~jobs ~shrink:true ~seed:77L ~count:50
      ~levels:[ Pipeline.O0; Pipeline.O2 ]
      ~versions:1 ()
  in
  let serial = campaign (Pool.Jobs 1) in
  let parallel = campaign (Pool.Jobs 4) in
  Alcotest.(check bool)
    "campaign records identical" true (serial = parallel);
  Alcotest.(check bool)
    "reproducers byte-identical" true
    (List.map Fuzz.reproducer serial.Fuzz.findings
    = List.map Fuzz.reproducer parallel.Fuzz.findings)

(* ---- metrics-merge property: counters/histograms merged back from k
   workers equal the single-process run over the same task set, on the
   telemetry measurement for 2 workloads ---- *)

let test_metrics_merge () =
  let ws = [ Workloads.find "429.mcf"; Workloads.find "470.lbm" ] in
  let configs = Config.paper_configs in
  (* Build the grid's tasks against pre-prepared artifacts, exactly like
     the bench suite: prepare in the parent, measure in the pool. *)
  let prepared =
    List.map
      (fun (w : Workload.t) ->
        let c = Driver.compile_cached ~name:w.name w.source in
        (w, c, Driver.train_cached c ~args:w.train_args))
      ws
  in
  let tasks =
    List.concat_map
      (fun (w, c, profile) ->
        List.map
          (fun (_, config) () ->
            let image, _ =
              Driver.diversify_linked c ~config ~profile ~version:0
            in
            (Driver.run_image image ~args:w.Workload.train_args).Sim.status)
          configs)
      prepared
  in
  let dump_under jobs =
    Metrics.reset ();
    let outcomes = Pool.run ~jobs tasks in
    List.iter
      (function
        | Pool.Done _ -> ()
        | o -> Alcotest.fail ("grid cell " ^ outcome_label o))
      outcomes;
    Metrics.dump_json ()
  in
  let serial = dump_under (Pool.Jobs 1) in
  let merged = dump_under (Pool.Jobs 3) in
  Metrics.reset ();
  Alcotest.(check string) "merged registry equals serial" serial merged

let test_snapshot_delta_merge () =
  (* Unit-level: delta captures exactly what happened after the base
     snapshot, and merge adds it back. *)
  Metrics.reset ();
  let c = Metrics.counter "exec.test.counter" in
  let h = Metrics.histogram "exec.test.hist" in
  Metrics.incr ~by:5L c;
  Metrics.observe h 1.0;
  let base = Metrics.snapshot () in
  Metrics.incr ~by:2L c;
  Metrics.observe h 2.0;
  Metrics.observe h 3.0;
  let d = Metrics.delta ~since:base in
  let after = Metrics.dump_json () in
  Metrics.merge d;
  Alcotest.(check int) "histogram grew by the delta" 5 (Metrics.histogram_count h);
  Alcotest.(check (list (float 0.)))
    "merged values replay oldest-first" [ 1.; 2.; 3.; 2.; 3. ]
    (Metrics.histogram_values h);
  Alcotest.(check int64) "counter doubled its delta" 9L (Metrics.counter_value c);
  ignore after;
  Metrics.reset ()

let suite =
  [
    ( "exec",
      [
        Alcotest.test_case "pool result ordering" `Quick test_ordering;
        Alcotest.test_case "task failure containment" `Quick
          test_failure_containment;
        Alcotest.test_case "worker-crash containment" `Quick
          test_crash_containment;
        Alcotest.test_case "repeated crashes in one share" `Quick
          test_repeated_crash;
        Alcotest.test_case "nested-use rejection" `Quick test_nested_rejection;
        Alcotest.test_case "large results, -j 2 == serial" `Quick
          test_large_results;
        Alcotest.test_case "unmarshalable result" `Quick
          test_unmarshalable_result;
        Alcotest.test_case "snapshot/delta/merge" `Quick
          test_snapshot_delta_merge;
        Alcotest.test_case "fuzz parallel == serial (50 programs)" `Slow
          test_fuzz_parity;
        Alcotest.test_case "metrics merge == single process" `Slow
          test_metrics_merge;
      ] );
  ]
