(* The configs the whole-image fixture (golden_nop_digests.json) pins:
   every paper NOP config, then every portfolio/budgeted spec below, in
   this order.  gen_golden prints a cell per workload, config and
   version 0-2; the divpass tests walk the same grid. *)

let portfolio_specs =
  [
    "off+sched";
    "off+regperm";
    "off+subst";
    "p0-30+sched+regperm+subst";
    "p50+sched+regperm+subst+b2";
    "p0-30+sched+regperm+subst+b1";
    (* xchg candidates, basic-block shifting, the linear and
       function-scope shapes, and a budget with shifting. *)
    "p0-30+shift";
    "p50+xchg";
    "p0-30-lin+xchg+shift";
    "p10-50-fn";
    "p25-50-lin-fn+shift";
    "p30+shift+sched+regperm+subst+b2";
  ]

let all =
  Config.paper_configs
  @ List.map
      (fun spec ->
        match Config.of_spec spec with
        | Ok c -> (spec, c)
        | Error e -> failwith ("Fixture_configs: " ^ e))
      portfolio_specs

(* The [.text] of every image on the grid: each workload's baseline,
   then versions 0-2 of every config above, labelled "workload config
   vN".  Built once, on first use, for the tests that read every offset
   of real code. *)
let texts =
  lazy
    (List.concat_map
       (fun (w : Workload.t) ->
         let c = Driver.compile_cached ~name:w.name w.source in
         let profile = Driver.train_cached c ~args:w.train_args in
         (w.name ^ " baseline", (Driver.link_baseline c).Link.text)
         :: List.concat_map
              (fun (cname, config) ->
                List.init 3 (fun version ->
                    ( Printf.sprintf "%s %s v%d" w.name cname version,
                      (fst (Driver.diversify_linked c ~config ~profile ~version))
                        .Link.text )))
              all)
       Workloads.all)
