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
