(* Tests for the paper's contribution: the pNOP heuristic (§3.1) and the
   NOP-insertion pass (Algorithm 1). *)

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Heuristic. *)

let test_linear_formula () =
  (* p(x) = pmax - (pmax-pmin) * x/xmax *)
  Alcotest.check feq "x=0 gives pmax" 0.5
    (Heuristic.pnop Linear ~pmin:0.1 ~pmax:0.5 ~count:0L ~max_count:100L);
  Alcotest.check feq "x=xmax gives pmin" 0.1
    (Heuristic.pnop Linear ~pmin:0.1 ~pmax:0.5 ~count:100L ~max_count:100L);
  Alcotest.check feq "midpoint" 0.3
    (Heuristic.pnop Linear ~pmin:0.1 ~pmax:0.5 ~count:50L ~max_count:100L)

let test_log_formula () =
  Alcotest.check feq "x=0 gives pmax" 0.5
    (Heuristic.pnop Logarithmic ~pmin:0.1 ~pmax:0.5 ~count:0L ~max_count:100L);
  Alcotest.check feq "x=xmax gives pmin" 0.1
    (Heuristic.pnop Logarithmic ~pmin:0.1 ~pmax:0.5 ~count:100L
       ~max_count:100L);
  let expected =
    0.5 -. (0.4 *. (log 11.0 /. log 101.0))
  in
  Alcotest.check feq "x=10 of 100" expected
    (Heuristic.pnop Logarithmic ~pmin:0.1 ~pmax:0.5 ~count:10L ~max_count:100L)

let test_paper_astar_example () =
  (* §3.1: count 117,635 of max 2e9 in range 10-50% gives roughly 30%. *)
  let p = Heuristic.paper_astar_example () in
  Alcotest.(check bool)
    (Printf.sprintf "astar example ~0.30 (got %.4f)" p)
    true
    (p > 0.27 && p < 0.33)

let test_no_profile_is_cold () =
  Alcotest.check feq "no data at all" 0.3
    (Heuristic.pnop Logarithmic ~pmin:0.0 ~pmax:0.3 ~count:0L ~max_count:0L)

let test_invalid_range () =
  Alcotest.check_raises "pmin > pmax"
    (Invalid_argument "Heuristic.pnop: invalid range [0.5, 0.1]") (fun () ->
      ignore
        (Heuristic.pnop Linear ~pmin:0.5 ~pmax:0.1 ~count:0L ~max_count:1L))

let prop_bounds =
  QCheck.Test.make ~name:"pnop stays within [pmin, pmax]" ~count:1000
    QCheck.(
      triple (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
        (pair (map Int64.of_int (int_bound 1_000_000))
           (map Int64.of_int (int_bound 1_000_000))))
    (fun (a, b, (x, xmax)) ->
      let pmin = Float.min a b and pmax = Float.max a b in
      let xmax = Int64.max xmax 1L in
      let x = Int64.min x xmax in
      List.for_all
        (fun shape ->
          let p = Heuristic.pnop shape ~pmin ~pmax ~count:x ~max_count:xmax in
          p >= pmin -. 1e-12 && p <= pmax +. 1e-12)
        [ Heuristic.Linear; Heuristic.Logarithmic ])

let prop_monotone =
  QCheck.Test.make ~name:"hotter blocks never get more NOPs" ~count:500
    QCheck.(
      pair
        (map Int64.of_int (int_bound 1_000_000))
        (map Int64.of_int (int_bound 1_000_000)))
    (fun (a, b) ->
      let x1 = Int64.min a b and x2 = Int64.max a b in
      let xmax = Int64.max x2 1L in
      List.for_all
        (fun shape ->
          Heuristic.pnop shape ~pmin:0.1 ~pmax:0.5 ~count:x1 ~max_count:xmax
          >= Heuristic.pnop shape ~pmin:0.1 ~pmax:0.5 ~count:x2 ~max_count:xmax
             -. 1e-12)
        [ Heuristic.Linear; Heuristic.Logarithmic ])

let prop_log_spreads =
  (* log(1+x)/log(1+xmax) >= x/xmax on [0,xmax], so the log heuristic
     assigns probabilities at or below linear — it treats mid-range counts
     as hotter, avoiding the polarization the paper describes. *)
  QCheck.Test.make ~name:"log heuristic <= linear heuristic" ~count:500
    QCheck.(
      pair
        (map Int64.of_int (int_bound 1_000_000))
        (map Int64.of_int (int_range 1 1_000_000)))
    (fun (x, xmax) ->
      let x = Int64.min x xmax in
      Heuristic.pnop Logarithmic ~pmin:0.1 ~pmax:0.5 ~count:x ~max_count:xmax
      <= Heuristic.pnop Linear ~pmin:0.1 ~pmax:0.5 ~count:x ~max_count:xmax
         +. 1e-12)

(* ------------------------------------------------------------------ *)
(* NOP insertion. *)

let hot_loop_src =
  {|
  global int sink;
  int main(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) acc = acc + i * 3 - (acc >> 5);
    sink = acc;
    if (n < 0) { sink = 0 - 1; print_int(sink); put_char('!'); exit(2); }
    return acc;
  }
  |}

let compile src = Driver.compile ~name:"core-test" src

let test_off_is_identity () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 5l ] in
  let image, stats =
    Driver.diversify_linked c ~config:Config.off ~profile ~version:0
  in
  let baseline = Driver.link_baseline c in
  Alcotest.(check string) "same text" baseline.Link.text image.Link.text;
  Alcotest.(check int) "no NOPs" 0 (Divpass.nop_stats stats).Divpass.changed

let test_semantics_preserved () =
  (* The crucial property: every configuration and version computes the
     same thing as the baseline. *)
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 50l ] in
  let baseline = Driver.run_image (Driver.link_baseline c) ~args:[ 200l ] in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun version ->
          let image, _ = Driver.diversify_linked c ~config ~profile ~version in
          let r = Driver.run_image image ~args:[ 200l ] in
          Alcotest.(check int32)
            (Printf.sprintf "%s v%d status" cname version)
            baseline.Sim.status r.Sim.status;
          Alcotest.(check string)
            (Printf.sprintf "%s v%d output" cname version)
            baseline.Sim.output r.Sim.output)
        [ 0; 1; 2 ])
    Config.paper_configs

let test_deterministic_versions () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let config = Config.uniform 0.5 in
  let a, _ = Driver.diversify_linked c ~config ~profile ~version:3 in
  let b, _ = Driver.diversify_linked c ~config ~profile ~version:3 in
  Alcotest.(check string) "same version same bytes" a.Link.text b.Link.text;
  let c2, _ = Driver.diversify_linked c ~config ~profile ~version:4 in
  Alcotest.(check bool) "different versions differ" true
    (a.Link.text <> c2.Link.text)

let test_insertion_rate () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let config = Config.uniform 0.5 in
  let _, report = Driver.diversify_linked c ~config ~profile ~version:0 in
  let stats = Divpass.nop_stats report in
  let rate =
    float_of_int stats.Divpass.changed /. float_of_int stats.Divpass.seen
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.5" rate)
    true
    (abs_float (rate -. 0.5) < 0.08);
  let _, r0 =
    Driver.diversify_linked c ~config:(Config.uniform 0.0) ~profile ~version:0
  in
  let s0 = Divpass.nop_stats r0 in
  Alcotest.(check int) "p=0 inserts nothing" 0 s0.Divpass.changed;
  let _, r1 =
    Driver.diversify_linked c ~config:(Config.uniform 1.0) ~profile ~version:0
  in
  let s1 = Divpass.nop_stats r1 in
  Alcotest.(check int) "p=1 inserts everywhere" s1.Divpass.seen
    s1.Divpass.changed

let test_profile_guided_dynamic_nops () =
  (* With a strongly skewed profile, the profile-guided range [0,30%] must
     execute far fewer NOPs than uniform 30%, despite inserting NOPs
     liberally in cold code. *)
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 2000l ] in
  let run config =
    let image, _ = Driver.diversify_linked c ~config ~profile ~version:1 in
    Driver.run_image image ~args:[ 2000l ]
  in
  let uniform = run (Config.uniform 0.30) in
  let guided = run (Config.profiled ~pmin:0.0 ~pmax:0.30 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "guided executes far fewer NOPs (%Ld vs %Ld)"
       guided.Sim.nops_retired uniform.Sim.nops_retired)
    true
    (Int64.to_float guided.Sim.nops_retired
    < 0.25 *. Int64.to_float uniform.Sim.nops_retired);
  Alcotest.(check int32) "same result" uniform.Sim.status guided.Sim.status

let test_libc_untouched () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let baseline = Driver.link_baseline c in
  let image, _ =
    Driver.diversify_linked c ~config:(Config.uniform 0.5) ~profile ~version:0
  in
  Alcotest.(check int) "runtime block at same offset" baseline.Link.user_start
    image.Link.user_start;
  Alcotest.(check string) "runtime bytes identical"
    (String.sub baseline.Link.text 0 baseline.Link.user_start)
    (String.sub image.Link.text 0 image.Link.user_start)

let test_inserted_are_candidates () =
  (* Every inserted instruction must be a Table-1 candidate, and with
     use_xchg=false never an XCHG. *)
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let config = Config.uniform 1.0 in
  let rng = Rng.create 7L in
  List.iter
    (fun f ->
      let f', _ = Nop_insert.run_program ~config ~profile ~rng [ f ] in
      let f' = List.hd f' in
      let orig = Asm.insns f in
      let div = Asm.insns f' in
      (* With p=1 every item gets a preceding NOP.  Symbolic items
         (branches, calls, address loads) receive one too but do not
         appear in [Asm.insns], so the concrete stream holds the original
         instructions, one NOP each, plus one NOP per symbolic item. *)
      let n_sym =
        List.length
          (List.filter
             (function
               | Asm.Jmp_sym _ | Asm.Jcc_sym _ | Asm.Call_sym _
               | Asm.Mov_sym _ ->
                   true
               | _ -> false)
             (Asm.items f))
      in
      Alcotest.(check int) "doubled instruction count"
        ((2 * List.length orig) + n_sym)
        (List.length div);
      List.iter
        (fun i ->
          match i with
          | Insn.Xchg_rm_r _ -> Alcotest.fail "XCHG inserted despite default"
          | _ -> ())
        div)
    c.Driver.asm

(* The per-block probability is queried once per block, at its first
   instruction, under the block's label: [None] for the unlabelled entry,
   the latest [Label] after it, never for an empty block.  With basic-block
   shifting, the jmp and sled make up the unlabelled entry and the
   function's original entry instructions sit under [shift_label_base]. *)
let test_block_label_tracking () =
  let f =
    Asm.func "t"
      [
        Asm.ins Insn.Cdq;
        Asm.Label 7;
        Asm.ins (Insn.Inc_r Reg.EAX);
        Asm.ins (Insn.Dec_r Reg.EAX);
        Asm.Label 8;
        Asm.Label 9;
        Asm.ins (Insn.Inc_r Reg.EBX);
        Asm.Jmp_sym 7;
      ]
  in
  let diversify config =
    let queries = ref [] in
    (* Only block 9 is certain to get NOPs; p = 0 and p = 1 draw no
       Bernoulli trial. *)
    let prob name label =
      queries := (name, label) :: !queries;
      if label = Some 9 then 1.0 else 0.0
    in
    let out, stats =
      Nop_insert.run_program ~prob ~config ~profile:Profile.empty
        ~rng:(Rng.create 3L) [ f ]
    in
    (List.hd out, stats, List.rev !queries)
  in
  let labels = Alcotest.(list (pair string (option int))) in
  let out, stats, queries = diversify (Config.uniform 0.5) in
  Alcotest.check labels "one query per non-empty block"
    [ ("t", None); ("t", Some 7); ("t", Some 9) ]
    queries;
  Alcotest.(check int) "two NOPs" 2 stats.Nop_insert.nops_inserted;
  (match Asm.items out with
  | [
   Asm.Ins { insn = Insn.Cdq; _ };
   Asm.Label 7;
   Asm.Ins { insn = Insn.Inc_r Reg.EAX; _ };
   Asm.Ins { insn = Insn.Dec_r Reg.EAX; _ };
   Asm.Label 8;
   Asm.Label 9;
   Asm.Ins { insn = n1; _ };
   Asm.Ins { insn = Insn.Inc_r Reg.EBX; _ };
   Asm.Ins { insn = n2; _ };
   Asm.Jmp_sym 7;
  ] ->
      Alcotest.(check bool) "candidates" true
        (Nops.is_candidate n1 && Nops.is_candidate n2)
  | _ -> Alcotest.fail "NOPs only before block 9's instructions");
  let shifted, _, queries =
    diversify { (Config.uniform 0.5) with Config.bb_shift = true }
  in
  Alcotest.check labels "sled in the entry, old entry under the shift label"
    [
      ("t", None);
      ("t", Some Nop_insert.shift_label_base);
      ("t", Some 7);
      ("t", Some 9);
    ]
    queries;
  match Asm.items shifted with
  | Asm.Jmp_sym l :: _ ->
      Alcotest.(check int) "jmp past the sled" Nop_insert.shift_label_base l
  | _ -> Alcotest.fail "shifted function starts with a jmp"

let test_bb_shift () =
  (* The §6 extension: every function gets a jumped-over sled, semantics
     are preserved, and even a p=0 build is displaced. *)
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 50l ] in
  let base = Driver.run_image (Driver.link_baseline c) ~args:[ 100l ] in
  let config = { (Config.uniform 0.0) with Config.bb_shift = true } in
  let image, report = Driver.diversify_linked c ~config ~profile ~version:0 in
  let stats = Divpass.nop_stats report in
  let r = Driver.run_image image ~args:[ 100l ] in
  Alcotest.(check string) "output preserved" base.Sim.output r.Sim.output;
  Alcotest.(check int) "no NOPs inserted at p=0" 0 stats.Divpass.changed;
  Alcotest.(check bool) "but bytes were added" true
    (stats.Divpass.bytes_added > 0);
  (* Gadgets shift even at p=0: the whole function is displaced. *)
  let baseline = Driver.link_baseline c in
  let surviving =
    List.length
      (Survivor.surviving_gadgets ~original:baseline.Link.text
         ~diversified:image.Link.text ())
  in
  let libc_gadgets =
    List.length
      (List.filter
         (fun (g : Finder.t) -> g.offset < baseline.Link.user_start)
         (Finder.scan baseline.Link.text))
  in
  Alcotest.(check bool)
    (Printf.sprintf "user gadgets displaced (%d survive, %d in libc)"
       surviving libc_gadgets)
    true
    (surviving <= libc_gadgets + 2);
  Alcotest.(check string) "config name reflects shift" "p0+shift"
    (Config.name config)

(* The population fold hands over versions 0..n-1 in order, each the
   image diversify_linked builds for that version. *)
let test_population () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let config = Config.uniform 0.5 in
  let texts =
    List.rev
      (Driver.population c ~config ~profile ~n:5 ~init:[]
         (fun acc (i : Link.image) -> i.Link.text :: acc))
  in
  Alcotest.(check int) "five versions" 5 (List.length texts);
  Alcotest.(check (list string))
    "versions 0..4 in order, as diversify_linked builds them"
    (List.init 5 (fun version ->
         (fst (Driver.diversify_linked c ~config ~profile ~version)).Link.text))
    texts;
  let distinct = List.sort_uniq compare texts in
  Alcotest.(check int) "all distinct" 5 (List.length distinct)

(* A variant's account is its Divpass report: building variants must not
   grow the memoized, shared compilation's context, while the
   process-wide NOP counter still sees every inserted NOP. *)
let test_variants_leave_cctx () =
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let config = List.assoc "p0-30" Config.paper_configs in
  let counter =
    Metrics.counter ("diversify.nops_inserted." ^ Config.name config)
  in
  let stats0 = List.length (Cctx.stats c.Driver.cctx) in
  let counter0 = Metrics.counter_value counter in
  let inserted = ref 0 in
  for version = 1 to 50 do
    let _, report = Driver.diversify_linked c ~config ~profile ~version in
    inserted := !inserted + (Divpass.nop_stats report).Divpass.changed
  done;
  Alcotest.(check int) "cctx records unchanged" stats0
    (List.length (Cctx.stats c.Driver.cctx));
  Alcotest.(check bool) "some NOPs inserted" true (!inserted > 0);
  Alcotest.(check int64) "counter grew by the reports' NOPs"
    (Int64.of_int !inserted)
    (Int64.sub (Metrics.counter_value counter) counter0)

let test_config_names () =
  Alcotest.(check (list string)) "paper configuration names"
    [ "p50"; "p30"; "p25-50"; "p10-50"; "p0-30" ]
    (List.map fst Config.paper_configs);
  List.iter
    (fun (n, c) -> Alcotest.(check string) "name roundtrip" n (Config.name c))
    Config.paper_configs

let test_config_name_injective () =
  (* Distinct configurations must have distinct names: the name feeds
     Rng.of_labels in Driver.diversify_linked, so a collision would also make
     their diversified populations identical. *)
  let base = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  let fn = Config.profiled ~scope:`Function ~pmin:0.0 ~pmax:0.30 () in
  Alcotest.(check string) "scope suffix" "p0-30-fn" (Config.name fn);
  Alcotest.(check string) "xchg suffix" "p0-30+xchg"
    (Config.name { base with Config.use_xchg = true });
  Alcotest.(check string) "all suffixes" "p0-30-fn+xchg+shift"
    (Config.name { fn with Config.use_xchg = true; bb_shift = true });
  Alcotest.(check string) "uniform xchg" "p50+xchg"
    (Config.name { (Config.uniform 0.5) with Config.use_xchg = true });
  (* and therefore distinct configs draw from distinct RNG streams *)
  let c = compile hot_loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  let img_base, _ =
    Driver.diversify_linked c ~config:base ~profile ~version:0
  in
  let img_fn, _ = Driver.diversify_linked c ~config:fn ~profile ~version:0 in
  Alcotest.(check bool) "different configs, different binaries" true
    (img_base.Link.text <> img_fn.Link.text)

let suite =
  [
    ( "core.heuristic",
      [
        Alcotest.test_case "linear formula" `Quick test_linear_formula;
        Alcotest.test_case "log formula" `Quick test_log_formula;
        Alcotest.test_case "paper astar example" `Quick
          test_paper_astar_example;
        Alcotest.test_case "missing profile is cold" `Quick
          test_no_profile_is_cold;
        Alcotest.test_case "invalid range" `Quick test_invalid_range;
        QCheck_alcotest.to_alcotest prop_bounds;
        QCheck_alcotest.to_alcotest prop_monotone;
        QCheck_alcotest.to_alcotest prop_log_spreads;
      ] );
    ( "core.nop-insertion",
      [
        Alcotest.test_case "off is identity" `Quick test_off_is_identity;
        Alcotest.test_case "semantics preserved" `Quick
          test_semantics_preserved;
        Alcotest.test_case "deterministic versions" `Quick
          test_deterministic_versions;
        Alcotest.test_case "insertion rate" `Quick test_insertion_rate;
        Alcotest.test_case "profile-guided dynamic NOPs" `Quick
          test_profile_guided_dynamic_nops;
        Alcotest.test_case "runtime untouched" `Quick test_libc_untouched;
        Alcotest.test_case "inserted are candidates" `Quick
          test_inserted_are_candidates;
        Alcotest.test_case "basic-block shifting" `Quick test_bb_shift;
        Alcotest.test_case "block label tracking" `Quick
          test_block_label_tracking;
        Alcotest.test_case "population" `Quick test_population;
        Alcotest.test_case "variants leave the cctx alone" `Quick
          test_variants_leave_cctx;
        Alcotest.test_case "config names" `Quick test_config_names;
        Alcotest.test_case "config names injective" `Quick
          test_config_name_injective;
      ] );
  ]
