(* Gadget discovery, the Survivor algorithm, population analysis, and the
   attack-feasibility checker. *)

let bytes_of_hex s =
  let b = Buffer.create 16 in
  String.split_on_char ' ' s
  |> List.iter (fun tok ->
         if tok <> "" then
           Buffer.add_char b (Char.chr (int_of_string ("0x" ^ tok))));
  Buffer.contents b

(* ---------------- finder ---------------- *)

let test_finder_simple_ret () =
  (* pop ecx ; ret *)
  let text = bytes_of_hex "59 C3" in
  let gadgets = Finder.scan text in
  Alcotest.(check bool) "found pop;ret" true
    (List.exists
       (fun (g : Finder.t) ->
         g.offset = 0 && g.insns = [ Insn.Pop_r Reg.ECX; Insn.Ret ])
       gadgets);
  (* The bare RET at offset 1 is also a gadget. *)
  Alcotest.(check bool) "found bare ret" true
    (List.exists (fun (g : Finder.t) -> g.offset = 1) gadgets)

let test_finder_figure2 () =
  (* Paper Figure 2: "89 11 01 C3" hides "adc [ecx], eax ; ret" at
     offset 1, inside "mov [ecx], edx ; add ebx, eax". *)
  let text = bytes_of_hex "89 11 01 C3" in
  let gadgets = Finder.scan text in
  Alcotest.(check bool) "hidden gadget at offset 1" true
    (List.exists
       (fun (g : Finder.t) ->
         g.offset = 1
         &&
         match g.insns with
         | [ Insn.Alu_rm_r (Insn.Adc, Insn.Mem _, Reg.EAX); Insn.Ret ] -> true
         | _ -> false)
       gadgets)

let test_finder_rejects_control_flow () =
  (* jmp +0 ; ret — the direct jump may not appear inside a gadget, so
     offset 0 is not a gadget start (offset 5, the ret, is). *)
  let text = Encode.program [ Insn.Jmp_rel 0l; Insn.Ret ] in
  let gadgets = Finder.scan text in
  Alcotest.(check bool) "no gadget across a jmp" true
    (not (List.exists (fun (g : Finder.t) -> g.offset = 0) gadgets))

let test_finder_free_branches () =
  List.iter
    (fun (hex, expect) ->
      let sites = Finder.free_branch_sites (bytes_of_hex hex) in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %b" hex expect)
        expect
        (List.exists (fun (o, _) -> o = 0) sites))
    [
      ("C3", true) (* ret *);
      ("C2 08 00", true) (* ret 8 *);
      ("FF D0", true) (* call *eax *);
      ("FF E2", true) (* jmp *edx *);
      ("E9 00 00 00 00", false) (* direct jmp *);
      ("E8 00 00 00 00", false) (* direct call *);
      ("90", false);
    ]

(* The definition [Finder.free_branch_sites] must keep: decode every
   offset, keep the free branches. *)
let sites_by_full_decode text =
  let sites = ref [] in
  for pos = String.length text - 1 downto 0 do
    match Decode.insn ~pos text with
    | Some (i, len) when Insn.is_free_branch i -> sites := (pos, len) :: !sites
    | _ -> ()
  done;
  !sites

(* Random sections rich in free-branch first bytes and ModRM forms,
   each ending in a tail that is cut short at the end of text: a
   truncated [C2 xx], a lone [FF], or a complete [C3]. *)
let gen_section =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (2, oneofl [ 0xC3; 0xC2; 0xFF ]);
        (1, oneofl [ 0xD0; 0xE2; 0x10; 0x24; 0x25; 0x14; 0x64 ]);
        (4, int_bound 255);
      ]
  in
  let tail = oneofl [ ""; "\xC2"; "\xC2\x08"; "\xFF"; "\xC3" ] in
  map2
    (fun body tail ->
      String.init (List.length body) (fun i -> Char.chr (List.nth body i)) ^ tail)
    (list_size (int_bound 48) byte)
    tail

let prop_free_branch_sites =
  QCheck.Test.make ~name:"free_branch_sites = decode every offset" ~count:2000
    (QCheck.make ~print:(fun s -> String.escaped s) gen_section)
    (fun text ->
      Finder.free_branch_sites text = sites_by_full_decode text
      && Finder.count text = List.length (Finder.scan text))

(* The scan's definition, walked the long way: for every free branch in
   offset order, try every start up to [max_back_bytes] before it and
   keep the first branch each start decodes straight into. *)
let scan_by_walking (params : Finder.params) text =
  let found = Hashtbl.create 64 in
  List.iter
    (fun (branch, len) ->
      for start = max 0 (branch - params.max_back_bytes) to branch do
        let rec walk pos n acc =
          if pos = branch then Some (List.rev (fst (Option.get (Decode.insn ~pos text)) :: acc))
          else if pos > branch || n > params.max_insns then None
          else
            match Decode.insn ~pos text with
            | Some (i, len) when not (Finder.breaks_gadget i) ->
                walk (pos + len) (n + 1) (i :: acc)
            | _ -> None
        in
        let g = if start = branch then walk start 1 [] else walk start 2 [] in
        match g with
        | Some insns when not (Hashtbl.mem found start) ->
            Hashtbl.replace found start (insns, String.sub text start (branch + len - start))
        | _ -> ()
      done)
    (sites_by_full_decode text);
  Hashtbl.fold (fun start (insns, bytes) acc -> (start, insns, bytes) :: acc) found []
  |> List.sort compare

(* [Finder.scan] in the same shape, bytes included. *)
let scan_of params text =
  List.map (fun (g : Finder.t) -> (g.offset, g.insns, g.bytes)) (Finder.scan ~params text)

(* Random sections with random scan depths. *)
let arb_scan =
  QCheck.make
    ~print:(fun (s, (i, b)) -> Printf.sprintf "%S max_insns=%d back=%d" s i b)
    QCheck.Gen.(pair gen_section (pair (int_range 1 9) (int_range 0 32)))

let prop_scan_by_walking =
  QCheck.Test.make ~name:"scan = per-branch walk" ~count:2000 arb_scan
    (fun (text, (max_insns, max_back_bytes)) ->
      let params = { Finder.max_insns; max_back_bytes } in
      scan_of params text = scan_by_walking params text)

(* The same walk over every offset of the fixture images, at the default
   depths. *)
let test_scan_by_walking_images () =
  let params = Finder.default_params in
  List.iter
    (fun (what, text) ->
      if scan_of params text <> scan_by_walking params text then
        Alcotest.failf "%s: scan differs from the per-branch walk" what)
    (Lazy.force Fixture_configs.texts)

let test_finder_respects_depth () =
  (* Eight one-byte instructions then ret; with max_insns = 5 the start
     at offset 0 would need 9 instructions, so it is not a gadget. *)
  let text =
    Encode.program
      [
        Insn.Inc_r Reg.EAX; Insn.Inc_r Reg.EAX; Insn.Inc_r Reg.EAX;
        Insn.Inc_r Reg.EAX; Insn.Inc_r Reg.EAX; Insn.Inc_r Reg.EAX;
        Insn.Inc_r Reg.EAX; Insn.Inc_r Reg.EAX; Insn.Ret;
      ]
  in
  let gadgets = Finder.scan text in
  Alcotest.(check bool) "offset 0 too deep" true
    (not (List.exists (fun (g : Finder.t) -> g.offset = 0) gadgets));
  Alcotest.(check bool) "offset 4 within depth" true
    (List.exists (fun (g : Finder.t) -> g.offset = 4) gadgets)

(* ---------------- survivor ---------------- *)

let survivor_offsets ~original ~diversified =
  List.map
    (fun (g : Finder.t) -> g.offset)
    (Survivor.surviving_gadgets ~original ~diversified ())

let test_survivor_identical () =
  let text = Encode.program [ Insn.Pop_r Reg.EAX; Insn.Ret; Insn.Nop; Insn.Ret ] in
  Alcotest.(check int) "all survive in identical sections"
    (Finder.count text)
    (List.length (survivor_offsets ~original:text ~diversified:text))

let test_survivor_nop_normalization () =
  (* Diversified version has a NOP inserted inside the gadget: the
     sequences differ byte-wise but normalize to the same gadget. *)
  let original = Encode.program [ Insn.Pop_r Reg.EAX; Insn.Ret ] in
  let diversified =
    Encode.program [ Insn.Pop_r Reg.EAX; Insn.Nop; Insn.Ret ]
  in
  let offsets = survivor_offsets ~original ~diversified in
  Alcotest.(check bool) "gadget at offset 0 survives normalization" true
    (List.mem 0 offsets);
  Alcotest.(check bool) "survives" true (List.length offsets >= 1)

let test_survivor_displacement_kills () =
  (* A NOP inserted before the gadget displaces it; at the original
     offset the diversified bytes now decode differently. *)
  let original =
    Encode.program [ Insn.Mov_r_imm (Reg.EBX, 7l); Insn.Pop_r Reg.EAX; Insn.Ret ]
  in
  let diversified =
    Encode.program
      [ Insn.Nop; Insn.Mov_r_imm (Reg.EBX, 7l); Insn.Pop_r Reg.EAX; Insn.Ret ]
  in
  let offsets = survivor_offsets ~original ~diversified in
  (* The pop;ret gadget started at offset 5 in the original; at offset 5
     of the diversified section sits the middle of mov's immediate. *)
  Alcotest.(check bool) "displaced gadget dead" true (not (List.mem 5 offsets))

let test_survivor_monotone_in_probability () =
  (* End to end: higher insertion probability kills at least roughly as
     many gadgets.  Uses a real compiled program. *)
  let c =
    Driver.compile ~name:"surv"
      {|
      global int t[64];
      int f(int x) { t[x & 63] = x; return t[(x * 7) & 63]; }
      int main(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) acc = acc + f(i + acc);
        return acc;
      }
      |}
  in
  let profile = Driver.train c ~args:[ 20l ] in
  let baseline = Driver.link_baseline c in
  let surv p =
    let image, _ =
      Driver.diversify_linked c ~config:(Config.uniform p) ~profile ~version:0
    in
    List.length
      (Survivor.surviving_gadgets ~original:baseline.Link.text
         ~diversified:image.Link.text ())
  in
  let s0 = surv 0.0 in
  let s50 = surv 0.5 in
  let baseline_count = Finder.count baseline.Link.text in
  Alcotest.(check int) "p=0 keeps everything" baseline_count s0;
  Alcotest.(check bool)
    (Printf.sprintf "p=50%% kills most user gadgets (%d -> %d)" s0 s50)
    true (s50 < s0)

(* ---------------- population ---------------- *)

let report =
  Alcotest.(
    testable
      (fun ppf (r : Population.report) ->
        Format.fprintf ppf "%d: %s" r.population
          (String.concat " "
             (List.map
                (fun (k, n) -> Printf.sprintf ">=%d:%d" k n)
                r.at_least)))
      ( = ))

let test_population_thresholds () =
  let a = Encode.program [ Insn.Pop_r Reg.EAX; Insn.Ret ] in
  let b = Encode.program [ Insn.Pop_r Reg.EAX; Insn.Ret ] in
  let c = Encode.program [ Insn.Pop_r Reg.ECX; Insn.Ret ] in
  let counts = Population.create () in
  List.iter
    (fun text -> Population.add counts (Population.section_keys text))
    [ a; b; c ];
  let r = Population.report ~thresholds:[ 1; 2; 3 ] counts in
  let get k = List.assoc k r.Population.at_least in
  Alcotest.(check int) "population" 3 r.Population.population;
  (* a and b share both gadgets (pop eax;ret at 0, ret at 1); c shares
     only the ret at offset 1. *)
  Alcotest.(check int) "in >=3: just the shared ret" 1 (get 3);
  Alcotest.(check int) "in >=2: shared ret + pop eax;ret" 2 (get 2);
  Alcotest.(check bool) "monotone" true (get 1 >= get 2 && get 2 >= get 3)

(* A pair is keyed by what its instructions do, as [Insn.to_string]
   names them: [89 D8] and [8B C3] both decode to "mov %ebx, %eax" (the
   r/m,r and r,r/m directions of one register move), so the two
   versions share offset 0's mov;ret as well as offset 2's ret.  The
   second version's [C3] at offset 1 is a gadget the first lacks. *)
let test_population_direction_forms () =
  let counts = Population.create () in
  List.iter
    (fun hex -> Population.add counts (Population.section_keys (bytes_of_hex hex)))
    [ "89 D8 C3"; "8B C3 C3" ];
  Alcotest.(check (list (pair int int)))
    "mov;ret at 0 and ret at 2 in both" [ (1, 3); (2, 2) ]
    (Population.report ~thresholds:[ 1; 2 ] counts).Population.at_least

(* [population] is the number of adds, whatever they hold: a version
   without gadgets, or one repeating another, is still a version. *)
let test_population_counts_adds () =
  let keys =
    Population.section_keys (Encode.program [ Insn.Pop_r Reg.EAX; Insn.Ret ])
  in
  let counts = Population.create () in
  let population () =
    (Population.report ~thresholds:[ 1 ] counts).Population.population
  in
  Alcotest.(check int) "fresh" 0 (population ());
  Population.add counts keys;
  Population.add counts keys;
  Population.add counts [];
  Alcotest.(check int) "three adds" 3 (population ());
  Alcotest.(check (list (pair int int)))
    "the repeated version counts twice" [ (1, 2); (2, 2); (3, 0) ]
    (Population.report ~thresholds:[ 1; 2; 3 ] counts).Population.at_least

(* Table 3's thresholds at any population size: the paper's 2, 5 and 12,
   plus 8%, 20% and 48% of n, which at n = 25 are 2, 5 and 12 again.
   The census is the Driver fold feeding the count table one version at
   a time; it must equal [of_keys] over the same key sets, and the
   report must not depend on the order the versions arrive in. *)
let test_thresholds_scale () =
  Alcotest.(check (list int)) "n = 25" [ 2; 5; 12 ] (Population.thresholds 25);
  Alcotest.(check (list int))
    "n = 1000" [ 2; 5; 12; 80; 200; 480 ]
    (Population.thresholds 1000);
  let w = Workloads.find "429.mcf" in
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  let profile = Driver.train_cached c ~args:w.Workload.train_args in
  let counts = Population.create () in
  let keys =
    List.rev
      (Driver.population c
         ~config:(List.assoc "p0-30" Config.paper_configs)
         ~profile ~n:25 ~init:[]
         (fun acc (img : Link.image) ->
           let k = Population.section_keys img.Link.text in
           Population.add counts k;
           k :: acc))
  in
  let folded =
    Population.report ~thresholds:(Population.thresholds 25) counts
  in
  Alcotest.(check report) "fold at n = 25: thresholds 25 = [2; 5; 12]"
    (Population.report ~thresholds:[ 2; 5; 12 ] counts)
    folded;
  Alcotest.(check report) "of_keys = the fold" folded
    (Population.of_keys ~thresholds:[ 2; 5; 12 ] keys);
  Alcotest.(check report) "order-independent: reversed" folded
    (Population.of_keys ~thresholds:[ 2; 5; 12 ] (List.rev keys));
  let odds, evens =
    List.partition
      (fun (i, _) -> i mod 2 = 1)
      (List.mapi (fun i k -> (i, k)) keys)
  in
  Alcotest.(check report) "order-independent: odd versions first" folded
    (Population.of_keys ~thresholds:[ 2; 5; 12 ] (List.map snd (odds @ evens)))

(* ---------------- attack ---------------- *)

let test_classify () =
  let open Insn in
  let check msg expected insns =
    Alcotest.(check bool) msg true
      (List.mem expected (Attack.classify insns))
  in
  check "pop is load-const" Attack.Load_const [ Pop_r Reg.EAX; Ret ];
  check "store is mem-write" Attack.Mem_write
    [ Mov_rm_r (Mem (mem_base Reg.EBX), Reg.EAX); Ret ];
  check "load is mem-read" Attack.Mem_read
    [ Mov_r_rm (Reg.EAX, Mem (mem_base Reg.EBX)); Ret ];
  check "add is arith" Attack.Arith [ Alu_rm_r (Add, Reg Reg.EAX, Reg.EBX); Ret ];
  check "int 0x80 is syscall" Attack.Syscall [ Int 0x80; Ret ];
  check "pop esp is pivot" Attack.Stack_pivot [ Pop_r Reg.ESP; Ret ];
  Alcotest.(check (list (Alcotest.testable Attack.pp_gadget_class ( = ))))
    "cmp classifies as nothing" []
    (Attack.classify [ Alu_rm_r (Cmp, Reg Reg.EAX, Reg.EBX); Ret ]);
  Alcotest.(check (list (Alcotest.testable Attack.pp_gadget_class ( = ))))
    "bare ret classifies as nothing" []
    (Attack.classify [ Ret ])

let test_attack_feasible_on_rich_section () =
  (* A section that deliberately provides every required class. *)
  let open Insn in
  let text =
    Encode.program
      [
        Pop_r Reg.EAX; Ret;
        Mov_rm_r (Mem (mem_base Reg.EBX), Reg.EAX); Ret;
        Alu_rm_r (Add, Reg Reg.EAX, Reg.EBX); Ret;
        Int 0x80; Ret;
      ]
  in
  let v = Attack.attack Attack.Ropgadget text in
  Alcotest.(check bool) "feasible" true v.Attack.feasible;
  Alcotest.(check int) "nothing missing" 0 (List.length v.Attack.missing)

let test_attack_infeasible_without_syscall () =
  let open Insn in
  let text =
    Encode.program
      [
        Pop_r Reg.EAX; Ret;
        Mov_rm_r (Mem (mem_base Reg.EBX), Reg.EAX); Ret;
        Alu_rm_r (Add, Reg Reg.EAX, Reg.EBX); Ret;
      ]
  in
  let v = Attack.attack Attack.Ropgadget text in
  Alcotest.(check bool) "infeasible" false v.Attack.feasible;
  Alcotest.(check bool) "missing syscall" true
    (List.mem Attack.Syscall v.Attack.missing)

let test_microgadgets_are_short () =
  let open Insn in
  let text =
    Encode.program
      [ Pop_r Reg.EAX; Ret; Mov_r_imm (Reg.EBX, 0x11223344l); Ret ]
  in
  let micro = Attack.scan Attack.Microgadgets text in
  List.iter
    (fun (g : Finder.t) ->
      Alcotest.(check bool) "short" true (String.length g.bytes <= 4))
    micro;
  Alcotest.(check bool) "found pop;ret" true
    (List.exists (fun (g : Finder.t) -> g.offset = 0) micro)

let suite =
  [
    ( "gadget.finder",
      [
        Alcotest.test_case "pop;ret" `Quick test_finder_simple_ret;
        Alcotest.test_case "figure 2 hidden gadget" `Quick test_finder_figure2;
        Alcotest.test_case "rejects control flow" `Quick
          test_finder_rejects_control_flow;
        Alcotest.test_case "free branch kinds" `Quick
          test_finder_free_branches;
        Alcotest.test_case "depth limit" `Quick test_finder_respects_depth;
        QCheck_alcotest.to_alcotest prop_free_branch_sites;
        QCheck_alcotest.to_alcotest prop_scan_by_walking;
        Alcotest.test_case "scan = per-branch walk on the fixture images" `Quick
          test_scan_by_walking_images;
      ] );
    ( "gadget.survivor",
      [
        Alcotest.test_case "identical sections" `Quick test_survivor_identical;
        Alcotest.test_case "NOP normalization" `Quick
          test_survivor_nop_normalization;
        Alcotest.test_case "displacement kills" `Quick
          test_survivor_displacement_kills;
        Alcotest.test_case "monotone in probability" `Quick
          test_survivor_monotone_in_probability;
      ] );
    ( "gadget.population",
      [
        Alcotest.test_case "thresholds" `Quick test_population_thresholds;
        Alcotest.test_case "population counts the adds" `Quick
          test_population_counts_adds;
        Alcotest.test_case "register-move direction forms" `Quick
          test_population_direction_forms;
        Alcotest.test_case "thresholds scale with n" `Quick
          test_thresholds_scale;
      ] );
    ( "gadget.attack",
      [
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "feasible section" `Quick
          test_attack_feasible_on_rich_section;
        Alcotest.test_case "missing syscall" `Quick
          test_attack_infeasible_without_syscall;
        Alcotest.test_case "microgadgets short" `Quick
          test_microgadgets_are_short;
      ] );
  ]
