(* Ablations over the design choices DESIGN.md calls out:

   1. heuristic shape  — linear vs logarithmic pNOP(x) at 10-50%
                         (the paper argues log; here is the measured gap);
   2. normalization scope — program-wide x_max (the paper) vs
                         per-function x_max;
   3. NOP candidate set — enabling the bus-locking XCHG candidates, which
                         the paper excludes for performance.

   Run on a subset of benchmarks; each cell is the ref-input overhead
   averaged over versions. *)

let subset = [ "429.mcf"; "433.milc"; "456.hmmer"; "482.sphinx3"; "470.lbm" ]

(* [base] is the workload's baseline ref run, made once and shared by
   every variant. *)
let overhead (p, base) variant =
  let sum =
    Suite.fold_versions ~experiment:"ablation" p ~base variant ~init:0.0
      (fun sum _ r -> sum +. r.Sim.cycles)
  in
  let mean = sum /. float_of_int !Suite.perf_versions in
  Suite.pct ((mean /. base.Sim.cycles) -. 1.0)

let variants =
  [
    ("log 10-50 (paper)", Config.profiled ~pmin:0.10 ~pmax:0.50 ());
    ( "linear 10-50",
      Config.profiled ~shape:Heuristic.Linear ~pmin:0.10 ~pmax:0.50 () );
    ( "per-function xmax",
      Config.profiled ~scope:`Function ~pmin:0.10 ~pmax:0.50 () );
    ( "p50 + XCHG NOPs",
      { (Config.uniform 0.50) with Config.use_xchg = true } );
    ("p50 (no XCHG)", Config.uniform 0.50);
    ( "p0-30 + bb-shift",
      { (Config.profiled ~pmin:0.0 ~pmax:0.30 ()) with Config.bb_shift = true }
    );
    ("p0-30", Config.profiled ~pmin:0.0 ~pmax:0.30 ());
  ]

(* Security side of the §6 extension.  Whole-section survivor counts are
   dominated by the fixed runtime, so this measures exactly the residue
   §6 is about: gadgets surviving in USER code, which concentrate at the
   start of the binary where NOP displacement has not yet accumulated.
   The victim has a hot first function (profile-guided insertion leaves
   it almost untouched), the worst case for plain NOP insertion. *)
let hot_prefix_victim =
  {|
  global int buf[256];
  // The first function in the binary, called once per loop iteration:
  // every block of it is maximally hot, so profile-guided insertion
  // leaves it untouched (pNOP = pmin = 0) — and it contains 50011
  // (0xC35B), whose encoding hides a "pop ebx; ret" gadget.
  int mix(int a) { return (a ^ 50011) * 31 + (a >> 3); }
  int work(int n) {
    int acc = 1;
    for (int i = 0; i < n; i = i + 1) acc = acc + mix(acc + i);
    return acc;
  }
  int main(int n) { buf[0] = work(n); print_int(buf[0]); return 0; }
|}

let shift_security () =
  Format.printf
    "@.Basic-block shifting (paper 6): user-code gadgets surviving at \
     p0-30, hot-prefix victim, %d versions@."
    Suite.security_population;
  Suite.hr Format.std_formatter;
  let compiled = Driver.compile ~name:"hot-prefix" hot_prefix_victim in
  let profile = Driver.train compiled ~args:[ 4000l ] in
  let baseline = Driver.link_baseline compiled in
  let original = baseline.Link.text in
  let user_survivors config =
    let n = Suite.security_population in
    let total =
      Driver.population compiled ~config ~profile ~n ~init:0
        (fun total (img : Link.image) ->
          List.fold_left
            (fun total (g : Finder.t) ->
              if g.offset >= baseline.Link.user_start then total + 1 else total)
            total
            (Survivor.surviving_gadgets ~original ~diversified:img.Link.text ()))
    in
    float_of_int total /. float_of_int n
  in
  let user_baseline =
    List.length
      (List.filter
         (fun (g : Finder.t) -> g.offset >= baseline.Link.user_start)
         (Finder.scan original))
  in
  let p030 = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  Format.printf "user-code gadgets in the baseline:      %d@." user_baseline;
  Format.printf "surviving, p0-30:                       %.2f@."
    (user_survivors p030);
  Format.printf "surviving, p0-30 + basic-block shift:   %.2f@."
    (user_survivors { p030 with Config.bb_shift = true })

let run () =
  Format.printf "@.Ablations: heuristic shape, xmax scope, XCHG candidates@.";
  Suite.hr Format.std_formatter;
  Format.printf "%-20s" "Variant";
  List.iter (fun b -> Format.printf "%13s" b) subset;
  Format.printf "@.";
  let cells =
    List.map
      (fun bname ->
        let p = Suite.prepared (Workloads.find bname) in
        (p, Driver.run_image p.Suite.baseline ~args:p.Suite.workload.ref_args))
      subset
  in
  List.iter
    (fun ((vname, _) as variant) ->
      Format.printf "%-20s" vname;
      List.iter
        (fun cell -> Format.printf "%12.2f%%" (overhead cell variant))
        cells;
      Format.printf "@.")
    variants;
  Format.printf
    "(XCHG NOPs lock the bus; the blow-up above is why Table 1's XCHG rows \
     are disabled by default)@.";
  shift_security ()
