(* Table 2: surviving gadgets on SPEC binaries — the average number of
   gadgets surviving (same offset, equivalent after NOP normalization)
   over 25 diversified versions, per configuration; plus the paper's two
   derived columns: Extra%% (p0-30 vs p50, best-to-worst) and Surviving%%
   (p0-30 vs the undiversified baseline). *)

type row = {
  bench : string;
  baseline_gadgets : int;
  averages : (string * float) list;
}

let measure_row p =
  let w = p.Suite.workload in
  let original = p.Suite.baseline.Link.text in
  let baseline_gadgets = Finder.count original in
  let averages =
    List.map
      (fun (cname, config) ->
        let n = Suite.security_population in
        let survivors =
          Driver.population p.Suite.compiled ~config ~profile:p.Suite.profile
            ~n ~init:0 (fun total img ->
              total
              + List.length
                  (Survivor.surviving_gadgets ~original
                     ~diversified:img.Link.text ()))
        in
        (cname, float_of_int survivors /. float_of_int n))
      Suite.configs
  in
  { bench = w.name; baseline_gadgets; averages }

let run () =
  Format.printf
    "@.Table 2: surviving gadgets on SPEC binaries (average over %d \
     versions)@."
    Suite.security_population;
  Suite.hr Format.std_formatter;
  Format.printf "%-16s%10s" "Benchmark" "Baseline";
  List.iter (fun c -> Format.printf "%9s" c) Suite.config_names;
  Format.printf "%8s%11s@." "Extra%" "Surviving%";
  (* Prepare in the parent (warm cache for workers), then one pool task
     per workload row; failed cells are recorded and dropped. *)
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let rows =
    List.filter_map Fun.id
      (Suite.grid ~what:"table2"
         ~label:(fun p -> p.Suite.workload.Workload.name)
         measure_row prepared)
  in
  (* The paper sorts by baseline gadget count. *)
  let rows =
    List.sort (fun a b -> compare a.baseline_gadgets b.baseline_gadgets) rows
  in
  List.iter
    (fun r ->
      let avg name = List.assoc name r.averages in
      let p50 = avg "p50" and p030 = avg "p0-30" in
      let extra =
        if p50 > 0.0 then Suite.pct ((p030 -. p50) /. p50) else 0.0
      in
      let surviving =
        if r.baseline_gadgets > 0 then
          Suite.pct (p030 /. float_of_int r.baseline_gadgets)
        else 0.0
      in
      Format.printf "%-16s%10d" r.bench r.baseline_gadgets;
      List.iter (fun c -> Format.printf "%9.2f" (avg c)) Suite.config_names;
      Format.printf "%7.0f%%%10.2f%%@." extra surviving)
    rows
