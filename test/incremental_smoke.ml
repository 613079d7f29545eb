(* CI rebuild smoke: the incremental-build guarantee, end to end.

   Compile 429.mcf cold, then perturb exactly one function body (the
   checksum mask in [main]) and recompile.  The content-addressed store
   must serve every unchanged function, so the metrics registry has to
   show exactly one machine.isel.runs increment and nfuncs-1 store hits.
   Exits 1 (failing the CI job) on any violation, and writes the store
   statistics as a JSON artifact for upload. *)

let counter name = Metrics.counter_value (Metrics.counter name)

let replace ~anchor ~by s =
  let al = String.length anchor in
  let rec find i =
    if i + al > String.length s then
      failwith (Printf.sprintf "anchor %S not found in workload source" anchor)
    else if String.sub s i al = anchor then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + al) (String.length s - i - al)

let failures = ref 0

let check what ~expect actual =
  let ok = expect = actual in
  Printf.printf "%s %s: expected %d, got %d\n"
    (if ok then "ok  " else "FAIL")
    what expect actual;
  if not ok then incr failures

let () =
  let out = ref "store-stats.json" in
  let specs =
    [ ("--out", Arg.Set_string out, "FILE  write store statistics JSON") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "incremental_smoke [--out FILE]";

  let w = List.find (fun w -> w.Workload.name = "429.mcf") Workloads.all in
  let c0 = Driver.compile ~name:w.Workload.name w.Workload.source in
  let nfuncs = List.length c0.Driver.objects in
  let r0 =
    Driver.run_image (Driver.link_baseline c0) ~args:w.Workload.ref_args
  in

  (* One-function perturbation: the program-level memos are not involved
     (plain [compile]), only the function store carries state across. *)
  let perturbed =
    replace ~anchor:"checksum & 127" ~by:"checksum & 126" w.Workload.source
  in
  let isel0 = counter "machine.isel.runs" in
  let hits0 = counter "obj.store.hit" in
  let miss0 = counter "obj.store.miss" in
  let c1 = Driver.compile ~name:w.Workload.name perturbed in
  let isel = Int64.to_int (Int64.sub (counter "machine.isel.runs") isel0) in
  let hits = Int64.to_int (Int64.sub (counter "obj.store.hit") hits0) in
  let misses = Int64.to_int (Int64.sub (counter "obj.store.miss") miss0) in

  Printf.printf "429.mcf: %d functions, baseline status %ld\n" nfuncs
    r0.Sim.status;
  check "functions re-lowered after 1-function edit" ~expect:1 isel;
  check "store hits (unchanged functions)" ~expect:(nfuncs - 1) hits;
  check "store misses (edited function)" ~expect:1 misses;

  (* The perturbed build is a real program, not just a cache exercise. *)
  let r1 =
    Driver.run_image (Driver.link_baseline c1) ~args:w.Workload.ref_args
  in
  check "perturbed binary still terminates"
    ~expect:(Int32.to_int (Int32.logand r0.Sim.status 126l))
    (Int32.to_int r1.Sim.status);

  let j =
    Jsonw.Obj
      [
        ("schema", Jsonw.Str "psd-incremental-smoke/1");
        ("workload", Jsonw.Str w.Workload.name);
        ("functions", Jsonw.int nfuncs);
        ( "rebuild",
          Jsonw.Obj
            [
              ("isel_runs", Jsonw.int isel);
              ("store_hits", Jsonw.int hits);
              ("store_misses", Jsonw.int misses);
            ] );
        ( "store",
          Jsonw.Obj
            [
              ("entries", Jsonw.int (Memo.length Store.objects));
              ("capacity", Jsonw.int Store.capacity);
              ("hit_total", Jsonw.Int (counter "obj.store.hit"));
              ("miss_total", Jsonw.Int (counter "obj.store.miss"));
              ("evict_total", Jsonw.Int (counter "obj.store.evict"));
            ] );
        ("ok", Jsonw.Bool (!failures = 0));
      ]
  in
  let oc = open_out !out in
  Jsonw.to_channel oc j;
  output_char oc '\n';
  close_out oc;
  Printf.printf "store stats written to %s\n" !out;
  if !failures > 0 then exit 1
