(* Quickstart: the full pipeline on one small program.

     dune exec examples/quickstart.exe

   Compiles a MiniC program, profiles it on a training input, builds
   three diversified versions under the paper's best configuration
   (pNOP = 0-30%, logarithmic heuristic), and shows that the versions
   (a) behave identically and (b) have different code layouts. *)

let source =
  {|
  global int table[64];

  int mix(int x) { return (x * 2654435 + 97) % 1000; }

  int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      table[i & 63] = mix(i);
      acc = acc + table[i & 63];
    }
    print_int(acc);
    return acc & 127;
  }
|}

let () =
  (* 1. Compile at -O2. *)
  let compiled = Driver.compile ~name:"quickstart" source in
  Format.printf "compiled %d IR functions@."
    (List.length compiled.Driver.modul.Ir.funcs);

  (* 2. Train: run the instrumented program on a small input. *)
  let profile = Driver.train compiled ~args:[ 100l ] in
  Format.printf "profile: hottest basic block ran %Ld times@."
    (Profile.max_count profile);

  (* 3. Baseline (undiversified) build and run. *)
  let baseline = Driver.link_baseline compiled in
  let base_run = Driver.run_image baseline ~args:[ 5000l ] in
  Format.printf "baseline: %d text bytes, output %S, %.0f cycles@."
    (String.length baseline.Link.text)
    (String.trim base_run.Sim.output)
    base_run.Sim.cycles;

  (* 4. Three diversified versions at pNOP = 0-30%%. *)
  let config = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  List.iter
    (fun version ->
      let image, stats =
        Driver.diversify_linked compiled ~config ~profile ~version
      in
      let r = Driver.run_image image ~args:[ 5000l ] in
      assert (r.Sim.output = base_run.Sim.output);
      assert (r.Sim.status = base_run.Sim.status);
      let overhead =
        100.0 *. ((r.Sim.cycles /. base_run.Sim.cycles) -. 1.0)
      in
      let nop = Divpass.nop_stats stats in
      Format.printf
        "version %d: +%d NOPs (%d bytes), same output, overhead %+.2f%%@."
        version nop.Divpass.changed nop.Divpass.bytes_added overhead)
    [ 0; 1; 2 ];

  (* 5. The versions really are different binaries. *)
  let texts =
    List.map
      (fun v ->
        let image, _ =
          Driver.diversify_linked compiled ~config ~profile ~version:v
        in
        image.Link.text)
      [ 0; 1; 2 ]
  in
  Format.printf "distinct .text sections: %d of 3@."
    (List.length (List.sort_uniq compare texts))
