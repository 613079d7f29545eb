(* Table 3: gadgets surviving at the same location in at least k of the
   n diversified versions, per configuration — the attack-a-subset
   analysis.  The original binary is not part of the population.

   n is the paper's 25 by default; --population N regrows the census to
   N versions per workload and config, with the thresholds scaled to
   match (Population.thresholds: the paper's 2, 5 and 12, plus 8%, 20%
   and 48% of N).  Writes table3.json: n, the thresholds and every
   at_least count, all deterministic. *)

let run () =
  let n = !Suite.population in
  let thresholds = Population.thresholds n in
  Format.printf "@.Table 3: gadgets surviving in at least k of %d versions@." n;
  Suite.hr Format.std_formatter;
  Format.printf "%-16s" "Benchmark";
  List.iter
    (fun k ->
      List.iter
        (fun c -> Format.printf "%10s" (Printf.sprintf ">=%d %s" k c))
        Suite.config_names)
    thresholds;
  Format.printf "@.";
  (* One pool task per workload row; the census stays serial inside the
     task (nested pools are rejected), which is the right grain anyway —
     a row diversifies and scans n versions per config, one at a time,
     so memory follows the distinct pairs, not n. *)
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let measured =
    Suite.grid ~what:"table3"
      ~label:(fun p -> p.Suite.workload.Workload.name)
      (fun p ->
        List.map
          (fun (cname, config) ->
            let counts =
              Driver.population p.Suite.compiled ~config
                ~profile:p.Suite.profile ~n ~init:(Population.create ())
                (fun counts img ->
                  Population.add counts (Population.section_keys img.Link.text);
                  counts)
            in
            (cname, (Population.report ~thresholds counts).Population.at_least))
          Suite.configs)
      prepared
  in
  let rows =
    List.filter_map
      (fun (p, m) -> Option.map (fun r -> (p.Suite.workload.Workload.name, r)) m)
      (List.combine prepared measured)
  in
  List.iter
    (fun (wname, reports) ->
      Format.printf "%-16s" wname;
      List.iter
        (fun k ->
          List.iter
            (fun cname ->
              let at_least = List.assoc cname reports in
              Format.printf "%10d" (List.assoc k at_least))
            Suite.config_names)
        thresholds;
      Format.printf "@.")
    rows;
  let counts at_least =
    Jsonw.List
      (List.map
         (fun (k, count) ->
           Jsonw.Obj [ ("k", Jsonw.int k); ("gadgets", Jsonw.int count) ])
         at_least)
  in
  Suite.write_report ~experiment:"table3"
    ~deterministic:
      [
        ("n", Jsonw.int n);
        ("thresholds", Jsonw.List (List.map Jsonw.int thresholds));
        ( "rows",
          Jsonw.List
            (List.map
               (fun (wname, reports) ->
                 Jsonw.Obj
                   [
                     ("workload", Jsonw.Str wname);
                     ( "at_least",
                       Jsonw.Obj
                         (List.map
                            (fun (cname, at_least) -> (cname, counts at_least))
                            reports) );
                   ])
               rows) );
      ]
    ()
