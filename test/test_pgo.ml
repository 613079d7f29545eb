(* The production-profiling loop: sampled-profile merge algebra, the
   PSDPROF on-disk format's error paths, sampled-vs-exact agreement
   through NOP-aware back-mapping — on diversified binaries, for every
   workload — and the closed loop reaching a byte-level fixed point. *)

(* ---------------- helpers ---------------- *)

let with_temp f =
  let path = Filename.temp_file "psd_prof" ".psdprof" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let expect_failure ~substring f =
  match f () with
  | exception Failure m ->
      Alcotest.(check bool)
        (Printf.sprintf "failure %S mentions %S" m substring)
        true (contains m substring)
  | _ -> Alcotest.fail ("expected Failure mentioning " ^ substring)

(* Deterministic pseudo-random recordings (an LCG, so the properties are
   reproducible without a seed knob). *)
let state = ref 0x2545F4914F6CDD1DL

let rnd () =
  state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
  Int64.to_float (Int64.shift_right_logical !state 11) /. 9.007199254740992e15

let gen_sprof tag =
  let rows = Hashtbl.create 16 in
  let nrows = 3 + int_of_float (rnd () *. 12.0) in
  for i = 0 to nrows - 1 do
    let key = (Printf.sprintf "f%d" (i mod 5), i mod 7) in
    let mass = 1.0 +. (rnd () *. 1.0e6) in
    Hashtbl.replace rows key
      (mass +. Option.value (Hashtbl.find_opt rows key) ~default:0.0)
  done;
  {
    Sprof.sources =
      [
        {
          Sprof.image_digest = "d" ^ tag;
          config = "p25-50";
          seed = 7L;
          workload = "w" ^ tag;
          period = 1000.0;
          samples = Int64.of_float (rnd () *. 1.0e4);
          weight = 1.0;
        };
      ];
    rows;
    runtime_mass = rnd () *. 100.0;
    unknown_mass = rnd () *. 10.0;
  }

let sorted_rows (t : Sprof.t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.Sprof.rows []
  |> List.sort compare

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_rows_equal what a b =
  let ra = sorted_rows a and rb = sorted_rows b in
  Alcotest.(check int) (what ^ ": row count") (List.length ra) (List.length rb);
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check bool) (what ^ ": same keys") true (ka = kb);
      Alcotest.(check bool) (what ^ ": same mass") true (close va vb))
    ra rb;
  Alcotest.(check bool)
    (what ^ ": runtime mass") true
    (close a.Sprof.runtime_mass b.Sprof.runtime_mass);
  Alcotest.(check bool)
    (what ^ ": unknown mass") true
    (close a.Sprof.unknown_mass b.Sprof.unknown_mass)

(* ---------------- merge algebra ---------------- *)

let test_merge_commutative () =
  for i = 0 to 19 do
    let a = gen_sprof (Printf.sprintf "a%d" i)
    and b = gen_sprof (Printf.sprintf "b%d" i) in
    check_rows_equal "a+b = b+a" (Sprof.merge a b) (Sprof.merge b a)
  done

let test_merge_associative () =
  for i = 0 to 19 do
    let a = gen_sprof (Printf.sprintf "a%d" i)
    and b = gen_sprof (Printf.sprintf "b%d" i)
    and c = gen_sprof (Printf.sprintf "c%d" i) in
    check_rows_equal "(a+b)+c = a+(b+c)"
      (Sprof.merge (Sprof.merge a b) c)
      (Sprof.merge a (Sprof.merge b c))
  done

let test_merge_empty_identity () =
  Alcotest.(check bool) "empty is empty" true (Sprof.is_empty Sprof.empty);
  for i = 0 to 9 do
    let a = gen_sprof (Printf.sprintf "i%d" i) in
    check_rows_equal "empty + a = a" (Sprof.merge Sprof.empty a) a;
    check_rows_equal "a + empty = a" (Sprof.merge a Sprof.empty) a;
    Alcotest.(check bool)
      "identity keeps provenance" true
      ((Sprof.merge Sprof.empty a).Sprof.sources = a.Sprof.sources)
  done

let test_merge_weighted () =
  let a = gen_sprof "w" in
  let doubled = Sprof.merge ~weight:2.0 Sprof.empty a in
  Alcotest.(check bool)
    "weight scales total mass" true
    (close (Sprof.total_mass doubled) (2.0 *. Sprof.total_mass a));
  (match doubled.Sprof.sources with
  | [ s ] ->
      Alcotest.(check bool) "weight recorded in provenance" true
        (close s.Sprof.weight 2.0)
  | _ -> Alcotest.fail "expected one source");
  (match Sprof.merge ~weight:(-1.0) a a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weight must be rejected");
  (* The exact-profile merge obeys the same algebra (int64 counts, so
     equality is exact). *)
  let counts tag =
    let h = Hashtbl.create 8 in
    for i = 0 to 7 do
      Hashtbl.replace h (tag, i) (Int64.of_int ((i + 1) * 100))
    done;
    Profile.of_block_counts h
  in
  let p = counts "p" and q = counts "q" in
  let assoc t = List.sort compare (Profile.fold (fun k v acc -> (k, v) :: acc) t []) in
  Alcotest.(check bool) "Profile.merge commutative" true
    (assoc (Profile.merge p q) = assoc (Profile.merge q p));
  Alcotest.(check bool) "Profile.empty identity" true
    (assoc (Profile.merge Profile.empty p) = assoc p);
  Alcotest.(check bool) "Profile.merge weight scales" true
    (assoc (Profile.merge ~weight:3.0 Profile.empty p)
    = List.map (fun (k, v) -> (k, Int64.mul 3L v)) (assoc p));
  match Profile.merge ~weight:(-0.5) p q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Profile.merge negative weight must be rejected"

(* ---------------- PSDPROF framing ---------------- *)

let test_save_load_roundtrip () =
  let a = gen_sprof "rt" in
  with_temp (fun path ->
      Sprof.save a path;
      let loaded = Sprof.load path in
      check_rows_equal "round-trip" a loaded;
      Alcotest.(check bool) "provenance round-trips" true
        (a.Sprof.sources = loaded.Sprof.sources);
      (* Saving equal contents is byte-stable (rows are written sorted). *)
      let first = read_file path in
      Sprof.save loaded path;
      Alcotest.(check string) "byte-stable" first (read_file path))

let test_load_bad_magic () =
  with_temp (fun path ->
      write_file path "NOTAPROFILE-PADDING-PADDING-PADDING-PADDING";
      expect_failure ~substring:"magic" (fun () -> Sprof.load path))

let test_load_truncated () =
  let a = gen_sprof "tr" in
  with_temp (fun path ->
      Sprof.save a path;
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents / 2));
      expect_failure ~substring:"" (fun () -> Sprof.load path);
      (* A cut just past the 7-byte magic is reported as truncation. *)
      write_file path (String.sub contents 0 8);
      expect_failure ~substring:"truncated" (fun () -> Sprof.load path))

let test_load_corrupted () =
  let a = gen_sprof "co" in
  with_temp (fun path ->
      Sprof.save a path;
      let contents = Bytes.of_string (read_file path) in
      let pos = Bytes.length contents / 2 in
      Bytes.set contents pos
        (Char.chr (Char.code (Bytes.get contents pos) lxor 0xFF));
      write_file path (Bytes.to_string contents);
      expect_failure ~substring:"corrupt" (fun () -> Sprof.load path))

let test_load_version_skew () =
  with_temp (fun path ->
      Frame.write ~magic:"PSDPROF" ~version:99
        ~payload:(Marshal.to_string (gen_sprof "v") [])
        path;
      expect_failure ~substring:"version" (fun () -> Sprof.load path))

let test_load_bad_payload () =
  with_temp (fun path ->
      Frame.write ~magic:"PSDPROF" ~version:1 ~payload:"not a marshaled record"
        path;
      expect_failure ~substring:"bad payload" (fun () -> Sprof.load path))

let test_load_wrong_kind () =
  (* An object file is a valid frame of the wrong kind. *)
  with_temp (fun path ->
      let c = Driver.compile ~name:"wrong-kind" "int main() { return 1; }" in
      Objfile.save
        {
          Objfile.uname = "wrong-kind";
          funcs = c.Driver.objects;
          globals = c.Driver.modul.Ir.globals;
        }
        path;
      expect_failure ~substring:"magic" (fun () -> Sprof.load path))

(* ---------------- sampled vs exact, through diversification ------- *)

let overlap_floor = 90.0

(* The exact comparator in the same units as sampling: per-block cycle
   attribution from a simulated run's exec profile, aggregated through
   the same layout tables the sampler back-maps through. *)
let exact_cycle_profile image (r : Sim.result) =
  let prof = Simprof.of_result image r in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (f : Simprof.func_row) ->
      if not f.Simprof.in_runtime then
        List.iter
          (fun (b : Simprof.block_row) ->
            if b.Simprof.b_cycles >= 1.0 then
              Hashtbl.replace counts
                (f.Simprof.fname, b.Simprof.label)
                (Int64.of_float b.Simprof.b_cycles))
          f.Simprof.blocks)
    prof.Simprof.rows;
  Profile.of_block_counts counts

(* Sampled profiles of diversified binaries, back-mapped through the
   diversified image's own layout tables, must agree with the same run's
   exact cycle attribution on hot-set identity: >= 90% weighted hot-set
   overlap at small periods, across workloads x configs x versions. *)
let test_sampled_vs_exact_hot_set () =
  let workloads = [ "429.mcf"; "470.lbm"; "456.hmmer" ] in
  let configs = [ "p25-50"; "p0-30" ] in
  List.iter
    (fun wname ->
      let w = Workloads.find wname in
      let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
      let train = Driver.train c ~args:w.Workload.train_args in
      List.iter
        (fun cname ->
          let config = List.assoc cname Config.paper_configs in
          List.iter
            (fun version ->
              let image, _ =
                Driver.diversify_linked c ~config ~profile:train ~version
              in
              (* One run, profiled both ways. *)
              let r =
                Driver.run_image ~profile:true ~sample_period:101 image
                  ~args:w.Workload.train_args
              in
              let sp =
                Sprof.of_run ~image ~config:cname
                  ~workload:w.Workload.name r
              in
              let samples =
                (Option.get r.Sim.sample_profile).Sim.samples_taken
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s v%d sampled something" wname cname
                   version)
                true
                (Int64.compare samples 0L > 0 && Sprof.total_mass sp > 0.0);
              let exact = exact_cycle_profile image r in
              let s = Sprof.staleness ~fresh:exact sp in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s v%d hot overlap %.1f%% >= %.0f%%" wname
                   cname version s.Sprof.hot_overlap_pct overlap_floor)
                true
                (s.Sprof.hot_overlap_pct >= overlap_floor))
            [ 0; 1 ])
        configs)
    workloads

(* The round trip on the full suite: for each of the 19 workloads, a
   sampled profile recorded on a diversified binary agrees with the
   baseline (undiversified) binary's exact cycle profile on hot-block
   identity — block labels survive diversification, so the comparison is
   cross-variant by construction. *)
let test_roundtrip_all_workloads () =
  let config = List.assoc "p25-50" Config.paper_configs in
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
      let train = Driver.train c ~args:w.Workload.train_args in
      let baseline = Driver.link_baseline_cached c in
      let rb =
        Driver.run_image ~profile:true baseline ~args:w.Workload.train_args
      in
      let exact = exact_cycle_profile baseline rb in
      let image, _ =
        Driver.diversify_linked c ~config ~profile:train ~version:0
      in
      let sp, _ =
        Driver.record_profile ~sample_period:211 ~config:"p25-50" image
          ~workload:w.Workload.name ~args:w.Workload.train_args
      in
      let s = Sprof.staleness ~fresh:exact sp in
      Alcotest.(check bool)
        (Printf.sprintf "%s hot overlap %.1f%% >= %.0f%% (coverage %.1f%%)"
           w.Workload.name s.Sprof.hot_overlap_pct overlap_floor
           s.Sprof.coverage_pct)
        true
        (s.Sprof.hot_overlap_pct >= overlap_floor);
      Alcotest.(check bool)
        (w.Workload.name ^ " covers some blocks")
        true
        (s.Sprof.coverage_pct > 0.0))
    Workloads.all

(* ---------------- the closed loop ---------------- *)

(* The production profiling loop end to end: diversify with a fresh
   training profile, record sampled profiles of the deployed binary on
   both inputs, persist and reload them, merge, retrain and re-diversify.
   One more turn must then be a fixed point: the retrained binary's own
   recording does not drift from its training profile, so the drift gate
   keeps it and the redeployed [.text] is byte-identical. *)
let test_closed_loop_fixed_point () =
  let config_name = "p25-50" in
  let config = List.assoc config_name Config.paper_configs in
  let kept () = Metrics.counter_value (Metrics.counter "pgo.retrain.kept") in
  List.iter
    (fun wname ->
      let w = Workloads.find wname in
      let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
      let fresh = Driver.train c ~args:w.Workload.train_args in
      let diversify profile =
        fst (Driver.diversify_linked c ~config ~profile ~version:0)
      in
      let record image args =
        fst
          (Driver.record_profile ~config:config_name image
             ~workload:w.Workload.name ~args)
      in
      let image0 = diversify fresh in
      let merged =
        with_temp (fun train_path ->
            with_temp (fun ref_path ->
                Sprof.save (record image0 w.Workload.train_args) train_path;
                Sprof.save (record image0 w.Workload.ref_args) ref_path;
                Sprof.merge (Sprof.load train_path) (Sprof.load ref_path)))
      in
      Alcotest.(check bool)
        (wname ^ ": merged recording has mass") true
        (Sprof.total_mass merged > 0.0);
      Alcotest.(check int)
        (wname ^ ": merged recording has both sources")
        2
        (List.length merged.Sprof.sources);
      let profile = Driver.train_from_profile ~fresh c merged in
      let image1 = diversify profile in
      let output image =
        (Driver.run_image image ~args:w.Workload.ref_args).Sim.output
      in
      Alcotest.(check string)
        (wname ^ ": retrained binary's ref output is the baseline's")
        (output (Driver.link_baseline_cached c))
        (output image1);
      let kept0 = kept () in
      let merged1 =
        Sprof.merge
          (record image1 w.Workload.train_args)
          (record image1 w.Workload.ref_args)
      in
      let image2 =
        diversify (Driver.train_from_profile ~previous:profile c merged1)
      in
      Alcotest.(check int64)
        (wname ^ ": drift gate kept the deployed profile")
        1L
        (Int64.sub (kept ()) kept0);
      Alcotest.(check bool)
        (wname ^ ": loop at a byte-level fixed point") true
        (String.equal image2.Link.text image1.Link.text))
    [ "429.mcf"; "470.lbm" ]

let suite =
  [
    ( "pgo",
      [
        Alcotest.test_case "merge commutative" `Quick test_merge_commutative;
        Alcotest.test_case "merge associative" `Quick test_merge_associative;
        Alcotest.test_case "merge empty identity" `Quick
          test_merge_empty_identity;
        Alcotest.test_case "merge weighted" `Quick test_merge_weighted;
        Alcotest.test_case "psdprof round-trip" `Quick test_save_load_roundtrip;
        Alcotest.test_case "psdprof bad magic" `Quick test_load_bad_magic;
        Alcotest.test_case "psdprof truncated" `Quick test_load_truncated;
        Alcotest.test_case "psdprof corrupted" `Quick test_load_corrupted;
        Alcotest.test_case "psdprof version skew" `Quick test_load_version_skew;
        Alcotest.test_case "psdprof bad payload" `Quick test_load_bad_payload;
        Alcotest.test_case "psdprof wrong kind" `Quick test_load_wrong_kind;
        Alcotest.test_case "sampled vs exact hot set (workloads x configs)"
          `Slow test_sampled_vs_exact_hot_set;
        Alcotest.test_case "diversified round-trip (19 workloads)" `Slow
          test_roundtrip_all_workloads;
        Alcotest.test_case
          "closed loop reaches a fixed point (429.mcf, 470.lbm; p25-50)"
          `Quick test_closed_loop_fixed_point;
      ] );
  ]
