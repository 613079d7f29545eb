(* Shared plumbing for the evaluation harness: compile-and-profile each
   workload through the staged driver's artifact cache (one compile, one
   training run and one baseline link per workload, shared across every
   experiment), and provide the paper's parameters. *)

type prepared = {
  workload : Workload.t;
  compiled : Driver.compiled;
  profile : Profile.t;
  baseline : Link.image;
}

let prepare (w : Workload.t) =
  let compiled = Driver.compile_cached ~name:w.name w.source in
  {
    workload = w;
    compiled;
    profile = Driver.train_cached compiled ~args:w.train_args;
    baseline = Driver.link_baseline_cached compiled;
  }

let prepared = prepare

let configs = Config.paper_configs
let config_names = List.map fst configs

(* The paper builds 25 versions for the security tables and 5 for the
   performance figure (3 runs each; our simulator is deterministic, so
   re-running a version is pointless and we run each once). *)
let security_population = 25
let perf_versions = ref 3

(* Which workloads the workload-sweeping experiments cover: all 19 by
   default, restrictable with bench's --workloads flag (the CI smoke run
   keeps a full experiment cheap by selecting two small programs). *)
let selected_workloads = ref Workloads.all
let workloads () = !selected_workloads

(* How many versions the serve experiment's population-at-scale
   survivor run builds. *)
let serve_population = ref 1000

(* Where every report-writing experiment puts its report (bench's
   --out-dir flag).  The default is ignored by git, so a full bench run
   never rewrites the committed reference reports. *)
let out_dir = ref "bench-out"

(* Worker count for the experiment grids (bench's --jobs flag).  Serial
   by default; the pool's serial path is the reference semantics, so
   "--jobs 1" and "--jobs N" produce reports whose deterministic
   sections are byte-identical. *)
let jobs = ref (Pool.Jobs 1)

(* Cell failures, accumulated across experiments: an experiment skips
   the failed cell and carries on, and bench's main exits nonzero if
   anything landed here — the CI perf gate depends on that exit code. *)
let failures : (string * string) list ref = ref []
let record_failure ~cell msg = failures := (cell, msg) :: !failures

(* Run one experiment grid on the pool: one task per item, results in
   item order, failed cells logged and returned as None.  Items must be
   prepared (see [prepared]) in the parent first when they share driver
   caches — workers inherit the warm cache, keeping cache-hit metrics
   identical at every -j. *)
let grid ~what ~label f items =
  let outcomes = Pool.map ~jobs:!jobs f items in
  List.map2
    (fun item -> function
      | Pool.Done v -> Some v
      | o ->
          record_failure
            ~cell:(what ^ "/" ^ label item)
            (Pool.outcome_to_string o);
          None)
    items outcomes

let run_version p config version ~args =
  let image, _ =
    Driver.diversify_linked p.compiled ~config ~profile:p.profile ~version
  in
  Driver.run_image image ~args

let texts_of_population p config n =
  List.map
    (fun (img : Link.image) -> img.Link.text)
    (Driver.population p.compiled ~config ~profile:p.profile ~n)

let pct x = x *. 100.0

let hr ppf = Format.fprintf ppf "%s@." (String.make 78 '-')

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* The one report envelope, written to <out-dir>/<experiment>.json:

     {"schema":"psd-bench/1","experiment":E,
      "deterministic":{...},"wall_clock":{...}}

   [deterministic] holds only fields that are byte-identical across runs
   and at every -j (the perf gate compares these sections between a
   serial and a parallel run); wall times and everything derived from
   them go under [wall_clock].  No timestamp, host or job count. *)
let write_report ~experiment ~deterministic ?(wall_clock = []) () =
  mkdir_p !out_dir;
  let path = Filename.concat !out_dir (experiment ^ ".json") in
  let json =
    Jsonw.Obj
      [
        ("schema", Jsonw.Str "psd-bench/1");
        ("experiment", Jsonw.Str experiment);
        ("deterministic", Jsonw.Obj deterministic);
        ("wall_clock", Jsonw.Obj wall_clock);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Jsonw.to_channel oc json;
      output_char oc '\n');
  Format.printf "%s report written to %s@." experiment path
