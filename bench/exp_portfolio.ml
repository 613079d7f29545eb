(* Portfolio: the overhead × surviving-gadget Pareto of the divpass
   transform portfolio (portfolio.json; reference report
   BENCH_PR10.json).

   The paper evaluates one transform — profile-guided NOP insertion.
   This experiment puts every transform of the divpass registry on the
   same two axes, per workload:

   - {e overhead}: mean/max cycle overhead over the perf versions on the
     ref input, against the undiversified baseline;
   - {e security}: the Table-2 analogue (mean gadgets surviving the
     Survivor comparison over the security population), the Table-3
     analogue (distinct (offset, gadget) pairs shared by ≥2 versions of
     the population), and the PHP-case-study analogue (share of versions
     whose surviving gadget set still supports the canonical ROP
     attack).

   Cells: each transform alone (sched/regperm/subst ride on the [off]
   strategy so NOP insertion contributes nothing), the paper's best NOP
   config, the combined portfolio, and two budgeted portfolio cells.
   For the budgeted cells the report records the declared budget, the
   planner's own accounting, and whether the *measured* max overhead
   landed under the budget — a cell that busts its budget is recorded
   as a failed cell, so bench exits nonzero, and the perf gate caps the
   report's [max_budget_utilization_pct]. *)

let specs =
  [
    "p0-30";
    "off+sched";
    "off+regperm";
    "off+subst";
    "p0-30+sched+regperm+subst";
    "p50+sched+regperm+subst+b2";
    "p0-30+sched+regperm+subst+b1";
  ]

let config_of spec =
  match Config.of_spec spec with
  | Ok c -> c
  | Error e -> failwith (Printf.sprintf "portfolio: %s: %s" spec e)

type cell = {
  spec : string;
  overhead_mean_pct : float;
  overhead_max_pct : float;
  surviving_mean : float;
  population_ge2 : int;  (* (offset, gadget) pairs in >= 2 of the population *)
  attack_feasible_share : float;  (* of the security population *)
  budget : (float * float * float * float) option;
      (* declared pct, est cycles, budget cycles, planned cycles *)
}

type row = {
  bench : string;
  baseline_gadgets : int;
  baseline_feasible : bool;
  cells : cell list;
}

let measure_cell (p : Suite.prepared) ~(base : Sim.result) spec =
  let config = config_of spec in
  let sum, max_overhead =
    Suite.fold_versions ~experiment:"portfolio" p ~base (spec, config)
      ~init:(0.0, 0.0) (fun (sum, max_overhead) _ r ->
        let overhead = Suite.overhead ~base r in
        (sum +. overhead, Float.max max_overhead overhead))
  in
  let original = p.Suite.baseline.Link.text in
  let n = Suite.security_population in
  (* One pass over the security population: each version is counted
     into the Table-3 table, compared against the original and judged,
     then dropped. *)
  let counts = Population.create () in
  let surviving, feasible =
    Driver.population p.Suite.compiled ~config ~profile:p.Suite.profile ~n
      ~init:(0, 0) (fun (surviving, feasible) img ->
        let diversified = img.Link.text in
        Population.add counts (Population.section_keys diversified);
        let s = Survivor.surviving_gadgets ~original ~diversified () in
        ( surviving + List.length s,
          if (Attack.attack_on_gadgets Attack.Ropgadget s).Attack.feasible then
            feasible + 1
          else feasible ))
  in
  let population_ge2 =
    let report = Population.report ~thresholds:[ 2 ] counts in
    List.assoc 2 report.Population.at_least
  in
  let budget =
    Option.map
      (fun pct ->
        let plan =
          Budget.plan ~config ~profile:p.Suite.profile p.Suite.compiled.Driver.asm
        in
        let est, budget_cycles, planned = Budget.summary plan in
        (pct, est, budget_cycles, planned))
      config.Config.budget_pct
  in
  {
    spec;
    overhead_mean_pct = Suite.pct (sum /. float_of_int !Suite.perf_versions);
    overhead_max_pct = Suite.pct max_overhead;
    surviving_mean = float_of_int surviving /. float_of_int n;
    population_ge2;
    attack_feasible_share = float_of_int feasible /. float_of_int n;
    budget;
  }

let measure_row (p : Suite.prepared) =
  let w = p.Suite.workload in
  Trace.with_span "portfolio-workload"
    ~args:[ ("workload", w.Workload.name) ]
    (fun () ->
      let base = Driver.run_image p.Suite.baseline ~args:w.Workload.ref_args in
      let original = p.Suite.baseline.Link.text in
      {
        bench = w.Workload.name;
        baseline_gadgets = List.length (Finder.scan original);
        baseline_feasible =
          (Attack.attack Attack.Ropgadget original).Attack.feasible;
        cells = List.map (measure_cell p ~base) specs;
      })

let under_budget (c : cell) =
  match c.budget with
  | None -> true
  | Some (declared, _, _, _) -> c.overhead_max_pct <= declared

let cell_json (c : cell) =
  Jsonw.Obj
    ([
       ("config", Jsonw.Str c.spec);
       ("overhead_mean_pct", Jsonw.Float c.overhead_mean_pct);
       ("overhead_max_pct", Jsonw.Float c.overhead_max_pct);
       ("surviving_mean", Jsonw.Float c.surviving_mean);
       ("population_ge2", Jsonw.int c.population_ge2);
       ("attack_feasible_share", Jsonw.Float c.attack_feasible_share);
     ]
    @
    match c.budget with
    | None -> []
    | Some (declared, est, budget_cycles, planned) ->
        [
          ("budget_pct", Jsonw.Float declared);
          ("under_budget", Jsonw.Bool (under_budget c));
          ( "planner",
            Jsonw.Obj
              [
                ("estimated_baseline_cycles", Jsonw.Float est);
                ("budget_cycles", Jsonw.Float budget_cycles);
                ("planned_cycles", Jsonw.Float planned);
              ] );
        ])

let run () =
  Format.printf
    "@.Portfolio: overhead x surviving gadgets per divpass transform \
     (versions=%d, population=%d)@."
    !Suite.perf_versions Suite.security_population;
  Suite.hr Format.std_formatter;
  let prepared = List.map Suite.prepared (Suite.workloads ()) in
  let rows =
    List.filter_map Fun.id
      (Suite.grid ~what:"portfolio"
         ~label:(fun p -> p.Suite.workload.Workload.name)
         measure_row prepared)
  in
  List.iter
    (fun r ->
      Format.printf "%-16s baseline %d gadgets, attackable %b@." r.bench
        r.baseline_gadgets r.baseline_feasible;
      Format.printf "  %-28s %9s %9s %9s %7s %10s@." "config" "overhead"
        "max" "surviving" ">=2of25" "attackable";
      List.iter
        (fun c ->
          Format.printf "  %-28s %8.2f%% %8.2f%% %9.2f %7d %9.0f%%%s@." c.spec
            c.overhead_mean_pct c.overhead_max_pct c.surviving_mean
            c.population_ge2
            (Suite.pct c.attack_feasible_share)
            (if under_budget c then ""
             else
               Printf.sprintf "  ** OVER %.1f%% BUDGET"
                 (match c.budget with Some (d, _, _, _) -> d | None -> 0.0)))
        r.cells)
    rows;
  (* A budgeted cell that busts its declared budget is a failure. *)
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          if not (under_budget c) then
            Suite.record_failure
              ~cell:(Printf.sprintf "portfolio/%s/%s" r.bench c.spec)
              (Printf.sprintf "measured max overhead %.3f%% over budget"
                 c.overhead_max_pct))
        r.cells)
    rows;
  (* Geometric-mean overhead per config across workloads. *)
  Suite.hr Format.std_formatter;
  let geomeans =
    Suite.geomean_overheads specs rows ~overhead_pct:(fun r spec ->
        (List.find (fun c -> c.spec = spec) r.cells).overhead_mean_pct)
  in
  Format.printf "%-30s%10s@." "Geometric-mean overhead" "";
  List.iter (fun (s, o) -> Format.printf "  %-28s %8.2f%%@." s o) geomeans;
  (* The number the perf gate caps: the worst budgeted cell's measured
     max overhead as a share of its declared budget.  Absent when no
     cell is budgeted, so the gate's row fails instead of passing on an
     empty set. *)
  let utilization =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c ->
            Option.map
              (fun (declared, _, _, _) ->
                ( Suite.pct (c.overhead_max_pct /. declared),
                  r.bench ^ "/" ^ c.spec ))
              c.budget)
          r.cells)
      rows
  in
  let worst =
    match List.sort (fun (a, _) (b, _) -> Float.compare b a) utilization with
    | [] -> []
    | (pct, cell) :: _ ->
        [
          ("max_budget_utilization_pct", Jsonw.Float pct);
          ("worst_budget_cell", Jsonw.Str cell);
        ]
  in
  Suite.write_report ~experiment:"portfolio"
    ~deterministic:
      ([
         ("versions", Jsonw.int !Suite.perf_versions);
         ("population", Jsonw.int Suite.security_population);
         ("budget_headroom", Jsonw.Float Budget.headroom);
         ( "geomean_overhead_pct",
           Jsonw.Obj (List.map (fun (s, o) -> (s, Jsonw.Float o)) geomeans) );
         ( "workloads",
           Jsonw.List
             (List.map
                (fun r ->
                  Jsonw.Obj
                    [
                      ("name", Jsonw.Str r.bench);
                      ("baseline_gadgets", Jsonw.int r.baseline_gadgets);
                      ( "baseline_attack_feasible",
                        Jsonw.Bool r.baseline_feasible );
                      ("configs", Jsonw.List (List.map cell_json r.cells));
                    ])
                rows) );
       ]
      @ worst)
    ()
