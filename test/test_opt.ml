(* Unit tests for the optimizer passes, on hand-built IR.  The
   end-to-end guarantee (O0 and O2 agree) lives in test_backend; these
   check that each pass actually performs its transformation. *)

(* Build a one-block function: instrs then a return. *)
let func_of ?(params = 0) instrs term =
  let b = Builder.create ~name:"f" ~n_params:params in
  (* Reserve the temps the caller references. *)
  let rec bump_to n = if Builder.fresh_temp b < n then bump_to n else () in
  bump_to 63;
  List.iter (Builder.emit b) instrs;
  Builder.terminate b term;
  Builder.finish b

let instrs_of (f : Ir.func) = List.concat_map (fun b -> b.Ir.instrs) f.blocks

let test_constfold_arith () =
  let f =
    func_of
      [ Ir.Bin (Ir.Add, 100, Ir.Const 2l, Ir.Const 3l) ]
      (Ir.Ret (Some (Ir.Temp 100)))
  in
  ignore (Constfold.run f);
  match instrs_of f with
  | [ Ir.Copy (100, Ir.Const 5l) ] -> ()
  | is ->
      Alcotest.failf "expected folded copy, got %d instrs: %s" (List.length is)
        (String.concat "; " (List.map Ir.show_instr is))

let test_constfold_identities () =
  let cases =
    [
      (Ir.Bin (Ir.Add, 100, Ir.Temp 0, Ir.Const 0l), Ir.Copy (100, Ir.Temp 0));
      (Ir.Bin (Ir.Mul, 100, Ir.Temp 0, Ir.Const 1l), Ir.Copy (100, Ir.Temp 0));
      (Ir.Bin (Ir.Mul, 100, Ir.Temp 0, Ir.Const 0l), Ir.Copy (100, Ir.Const 0l));
      (Ir.Bin (Ir.Xor, 100, Ir.Temp 0, Ir.Temp 0), Ir.Copy (100, Ir.Const 0l));
      (Ir.Bin (Ir.Sub, 100, Ir.Temp 0, Ir.Temp 0), Ir.Copy (100, Ir.Const 0l));
      (Ir.Bin (Ir.Shl, 100, Ir.Temp 0, Ir.Const 0l), Ir.Copy (100, Ir.Temp 0));
    ]
  in
  List.iter
    (fun (before, after) ->
      let f = func_of ~params:1 [ before ] (Ir.Ret (Some (Ir.Temp 100))) in
      ignore (Constfold.run f);
      match instrs_of f with
      | [ got ] ->
          Alcotest.(check bool)
            (Ir.show_instr before ^ " simplifies")
            true (Ir.equal_instr got after)
      | _ -> Alcotest.fail "unexpected shape")
    cases

let test_constfold_keeps_div_by_zero () =
  (* Division by a zero constant must stay: it traps at runtime. *)
  let f =
    func_of
      [ Ir.Bin (Ir.Div, 100, Ir.Const 1l, Ir.Const 0l) ]
      (Ir.Ret (Some (Ir.Temp 100)))
  in
  ignore (Constfold.run f);
  match instrs_of f with
  | [ Ir.Bin (Ir.Div, _, _, _) ] -> ()
  | _ -> Alcotest.fail "div by zero constant must not fold"

let test_constfold_branch () =
  let b = Builder.create ~name:"f" ~n_params:0 in
  let l1 = Builder.fresh_label b in
  let l2 = Builder.fresh_label b in
  Builder.terminate b (Ir.Cbr (Ir.Lt, Ir.Const 1l, Ir.Const 2l, l1, l2));
  Builder.start_block b l1;
  Builder.terminate b (Ir.Ret (Some (Ir.Const 1l)));
  Builder.start_block b l2;
  Builder.terminate b (Ir.Ret (Some (Ir.Const 2l)));
  let f = Builder.finish b in
  ignore (Constfold.run f);
  match (List.hd f.blocks).Ir.term with
  | Ir.Jmp l when l = l1 -> ()
  | t -> Alcotest.failf "expected jmp L%d, got %s" l1 (Ir.show_terminator t)

let test_copyprop_chain () =
  let f =
    func_of ~params:1
      [
        Ir.Copy (100, Ir.Temp 0);
        Ir.Copy (101, Ir.Temp 100);
        Ir.Bin (Ir.Add, 102, Ir.Temp 101, Ir.Temp 100);
      ]
      (Ir.Ret (Some (Ir.Temp 102)))
  in
  ignore (Copyprop.run f);
  match instrs_of f with
  | [ _; _; Ir.Bin (Ir.Add, 102, Ir.Temp 0, Ir.Temp 0) ] -> ()
  | is ->
      Alcotest.failf "copies not propagated: %s"
        (String.concat "; " (List.map Ir.show_instr is))

let test_copyprop_kill_on_redef () =
  (* After t0 is redefined, earlier copies of it must not propagate. *)
  let f =
    func_of ~params:1
      [
        Ir.Copy (100, Ir.Temp 0);
        Ir.Bin (Ir.Add, 0, Ir.Temp 0, Ir.Const 1l);
        Ir.Copy (101, Ir.Temp 100);
      ]
      (Ir.Ret (Some (Ir.Temp 101)))
  in
  ignore (Copyprop.run f);
  match instrs_of f with
  | [ _; _; Ir.Copy (101, src) ] ->
      (* must NOT have become Temp 0 (stale); Temp 100 is correct *)
      Alcotest.(check bool) "not stale" true (src <> Ir.Temp 0)
  | _ -> Alcotest.fail "unexpected shape"

let test_cse_basic () =
  let f =
    func_of ~params:2
      [
        Ir.Bin (Ir.Add, 100, Ir.Temp 0, Ir.Temp 1);
        Ir.Bin (Ir.Add, 101, Ir.Temp 0, Ir.Temp 1);
      ]
      (Ir.Ret (Some (Ir.Temp 101)))
  in
  ignore (Cse.run f);
  match instrs_of f with
  | [ Ir.Bin _; Ir.Copy (101, Ir.Temp 100) ] -> ()
  | is ->
      Alcotest.failf "expected CSE copy: %s"
        (String.concat "; " (List.map Ir.show_instr is))

let test_cse_load_killed_by_store () =
  let f =
    func_of ~params:2
      [
        Ir.Load (100, Ir.Temp 0);
        Ir.Store (Ir.Temp 1, Ir.Const 9l);
        Ir.Load (101, Ir.Temp 0);
      ]
      (Ir.Ret (Some (Ir.Temp 101)))
  in
  ignore (Cse.run f);
  match instrs_of f with
  | [ Ir.Load _; Ir.Store _; Ir.Load _ ] -> ()
  | _ -> Alcotest.fail "load across store must not be reused"

let test_cse_self_reference () =
  (* t0 = t0 + 1 must not make "t0 + 1" available afterwards. *)
  let f =
    func_of ~params:1
      [
        Ir.Bin (Ir.Add, 0, Ir.Temp 0, Ir.Const 1l);
        Ir.Bin (Ir.Add, 100, Ir.Temp 0, Ir.Const 1l);
      ]
      (Ir.Ret (Some (Ir.Temp 100)))
  in
  ignore (Cse.run f);
  match instrs_of f with
  | [ Ir.Bin _; Ir.Bin _ ] -> ()
  | is ->
      Alcotest.failf "unsound CSE of self-referential expression: %s"
        (String.concat "; " (List.map Ir.show_instr is))

let test_dce_removes_dead_chain () =
  let f =
    func_of ~params:1
      [
        Ir.Bin (Ir.Add, 100, Ir.Temp 0, Ir.Const 1l);
        Ir.Bin (Ir.Mul, 101, Ir.Temp 100, Ir.Const 2l);
        (* 101 never used *)
        Ir.Bin (Ir.Add, 102, Ir.Temp 0, Ir.Const 3l);
      ]
      (Ir.Ret (Some (Ir.Temp 102)))
  in
  ignore (Dce.run f);
  Alcotest.(check int) "only the live instr remains" 1
    (List.length (instrs_of f))

let test_dce_keeps_side_effects () =
  let f =
    func_of ~params:1
      [
        Ir.Store (Ir.Temp 0, Ir.Const 1l);
        Ir.Call (Some 100, "print_int", [ Ir.Const 2l ]);
      ]
      (Ir.Ret None)
  in
  ignore (Dce.run f);
  match instrs_of f with
  | [ Ir.Store _; Ir.Call (None, "print_int", _) ] ->
      (* the unused call result is dropped, the call itself kept *)
      ()
  | is ->
      Alcotest.failf "side effects mishandled: %s"
        (String.concat "; " (List.map Ir.show_instr is))

let test_simplify_unreachable () =
  let b = Builder.create ~name:"f" ~n_params:0 in
  let dead = Builder.fresh_label b in
  Builder.terminate b (Ir.Ret (Some (Ir.Const 1l)));
  Builder.start_block b dead;
  Builder.terminate b (Ir.Ret (Some (Ir.Const 2l)));
  let f = Builder.finish b in
  ignore (Simplify_cfg.run f);
  Alcotest.(check int) "dead block removed" 1 (List.length f.Ir.blocks)

let test_simplify_jump_threading () =
  let b = Builder.create ~name:"f" ~n_params:0 in
  let mid = Builder.fresh_label b in
  let final = Builder.fresh_label b in
  Builder.terminate b (Ir.Jmp mid);
  Builder.start_block b mid;
  Builder.terminate b (Ir.Jmp final);
  Builder.start_block b final;
  Builder.terminate b (Ir.Ret (Some (Ir.Const 7l)));
  let f = Builder.finish b in
  ignore (Simplify_cfg.run f);
  (* Everything merges into the entry block. *)
  Alcotest.(check int) "merged to one block" 1 (List.length f.Ir.blocks);
  match (List.hd f.Ir.blocks).Ir.term with
  | Ir.Ret (Some (Ir.Const 7l)) -> ()
  | t -> Alcotest.failf "unexpected terminator %s" (Ir.show_terminator t)

let test_simplify_keeps_infinite_loop () =
  let b = Builder.create ~name:"f" ~n_params:0 in
  let loop = Builder.fresh_label b in
  Builder.terminate b (Ir.Jmp loop);
  Builder.start_block b loop;
  Builder.terminate b (Ir.Jmp loop);
  let f = Builder.finish b in
  ignore (Simplify_cfg.run f);
  (* Must terminate and keep a well-formed self loop. *)
  Verify.check_exn { Ir.funcs = [ f ]; globals = [] }

let test_pipeline_fixpoint_terminates () =
  let src =
    {|
    int main(int n) {
      int a = 1 * n + 0;
      int b = a ^ a;
      int c = (n + n) - (n + n);
      if (1 < 2) return a + b + c;
      return 99;
    }
    |}
  in
  let m = Minic.compile_exn src in
  let m = Pipeline.optimize m in
  (* The branch folds away: a single block remains in main. *)
  let main = Ir.find_func m "main" in
  Alcotest.(check int) "one block after folding" 1 (List.length main.Ir.blocks)

let test_levels () =
  Alcotest.(check bool) "O2 parses" true (Pipeline.level_of_string "O2" = Some Pipeline.O2);
  Alcotest.(check bool) "bad level" true (Pipeline.level_of_string "O9" = None);
  Alcotest.(check string) "name" "O1" (Pipeline.level_name Pipeline.O1)

(* ---- the pass manager: descriptions, parsing, instrumentation ---- *)

let test_registry () =
  Alcotest.(check (list string))
    "standard pass order"
    [ "simplify-cfg"; "constfold"; "copyprop"; "cse"; "dce" ]
    Pipeline.pass_names;
  List.iter
    (fun n ->
      match Pipeline.find_pass n with
      | Some p -> Alcotest.(check string) "find_pass" n p.Pass.name
      | None -> Alcotest.failf "pass %s not found" n)
    Pipeline.pass_names;
  Alcotest.(check bool) "unknown pass" true (Pipeline.find_pass "sroa" = None)

let test_descr_roundtrip () =
  List.iter
    (fun s ->
      match Pipeline.descr_of_string s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok d -> (
          let s' = Pipeline.descr_to_string d in
          match Pipeline.descr_of_string s' with
          | Ok d' ->
              Alcotest.(check bool)
                (Printf.sprintf "%S round-trips via %S" s s')
                true (Pipeline.descr_equal d d')
          | Error e -> Alcotest.failf "re-parse %S: %s" s' e))
    [
      "";
      "dce";
      "simplify-cfg,constfold,copyprop,cse,dce";
      "cse,dce@3";
      "constfold@1";
      " constfold , dce ";
    ];
  (* every level's pipeline survives the string form too *)
  List.iter
    (fun l ->
      let d = Pipeline.of_level l in
      match Pipeline.descr_of_string (Pipeline.descr_to_string d) with
      | Ok d' ->
          Alcotest.(check bool)
            (Pipeline.level_name l ^ " round-trips")
            true (Pipeline.descr_equal d d')
      | Error e -> Alcotest.failf "level %s: %s" (Pipeline.level_name l) e)
    [ Pipeline.O0; Pipeline.O1; Pipeline.O2 ]

let test_descr_errors () =
  (match Pipeline.descr_of_string "no-such-pass" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown pass accepted");
  match Pipeline.descr_of_string "dce@x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad round bound accepted"

let opt_demo_src =
  {|
  global int g[8];
  int helper(int x) { return x * 3 + g[x & 7]; }
  int main() {
    int acc = 0;
    for (int i = 0; i < 20; i = i + 1) { g[i & 7] = i; acc = acc + helper(i); }
    return acc;
  }
  |}

let test_custom_pipeline_matches_o2 () =
  (* The full standard sequence spelled out as a --passes string must
     behave exactly like the built-in O2 pipeline. *)
  let m2 = Pipeline.optimize (Minic.compile_exn opt_demo_src) in
  let d =
    match Pipeline.descr_of_string "simplify-cfg,constfold,copyprop,cse,dce" with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let mc = Pipeline.run ~verify_each:true d (Minic.compile_exn opt_demo_src) in
  let r2 = Interp.run m2 ~entry:"main" ~args:[] in
  let rc = Interp.run mc ~entry:"main" ~args:[] in
  Alcotest.(check int32) "same result" r2.Interp.ret rc.Interp.ret;
  Alcotest.(check int) "same optimized size"
    (List.fold_left (fun n f -> n + Ir.size f) 0 m2.Ir.funcs)
    (List.fold_left (fun n f -> n + Ir.size f) 0 mc.Ir.funcs)

let test_pass_stats_accounting () =
  (* Per-stage stats record work actually performed, so a function served
     by the artifact store leaves no machine rows — compile cold. *)
  Memo.clear Store.objects;
  let c = Driver.compile ~name:"stats-test" opt_demo_src in
  let stats = Cctx.stats c.Driver.cctx in
  let ir_stats =
    List.filter
      (fun (s : Cctx.stat) -> s.Cctx.stage = "ir" && s.Cctx.pass <> "verify")
      stats
  in
  List.iter
    (fun (f : Ir.func) ->
      let fs =
        List.filter (fun (s : Cctx.stat) -> s.Cctx.func = f.Ir.name) ir_stats
      in
      match fs with
      | [] -> Alcotest.failf "no ir stats recorded for %s" f.Ir.name
      | first :: _ ->
          let last = List.nth fs (List.length fs - 1) in
          (* consecutive runs chain: each starts from the previous size *)
          ignore
            (List.fold_left
               (fun prev (s : Cctx.stat) ->
                 (match prev with
                 | Some p ->
                     Alcotest.(check int)
                       (f.Ir.name ^ ": runs chain")
                       p s.Cctx.items_before
                 | None -> ());
                 Some s.Cctx.items_after)
               None fs);
          (* deltas telescope: initial size + sum of deltas = final size *)
          let sum_delta =
            List.fold_left
              (fun acc (s : Cctx.stat) ->
                acc + (s.Cctx.items_after - s.Cctx.items_before))
              0 fs
          in
          Alcotest.(check int)
            (f.Ir.name ^ ": deltas sum to final size")
            (last.Cctx.items_after - first.Cctx.items_before)
            sum_delta;
          (* and the recorded final size is the function's actual size *)
          Alcotest.(check int)
            (f.Ir.name ^ ": final size matches the module")
            (Ir.size f) last.Cctx.items_after)
    c.Driver.modul.Ir.funcs;
  (* machine stages recorded once per function, with emitted bytes *)
  let emits =
    List.filter
      (fun (s : Cctx.stat) -> s.Cctx.stage = "machine" && s.Cctx.pass = "emit")
      stats
  in
  Alcotest.(check int) "one emit record per function"
    (List.length c.Driver.modul.Ir.funcs)
    (List.length emits);
  List.iter
    (fun (s : Cctx.stat) ->
      Alcotest.(check bool) "emitted bytes positive" true (s.Cctx.bytes > 0))
    emits;
  (* the emitted bytes in the table account for the whole user text *)
  let total_emitted =
    List.fold_left (fun acc (s : Cctx.stat) -> acc + s.Cctx.bytes) 0 emits
  in
  Alcotest.(check int) "emit bytes = assembled function sizes"
    (List.fold_left (fun acc f -> acc + Asm.func_size f) 0 c.Driver.asm)
    total_emitted

let test_verify_each_catches_breakage () =
  (* A deliberately broken "pass" must be caught immediately and named. *)
  let rogue =
    {
      Pass.name = "dce";
      (* reuse a registered name: the report must still surface *)
      descr = "breaks the function";
      run =
        (fun f ->
          (match f.Ir.blocks with
          | b :: _ -> b.Ir.term <- Ir.Jmp 424242
          | [] -> ());
          true);
    }
  in
  let d = { Pipeline.passes = [ rogue ]; max_rounds = 1 } in
  let m = Minic.compile_exn "int main() { return 1; }" in
  match Pipeline.run ~verify_each:true d m with
  | exception Failure msg ->
      Alcotest.(check bool) "names the pass" true
        (String.length msg > 0
        && String.sub msg 0 (String.length "IR verification failed")
           = "IR verification failed")
  | _ -> Alcotest.fail "broken IR not caught"

let suite =
  [
    ( "opt.constfold",
      [
        Alcotest.test_case "arith" `Quick test_constfold_arith;
        Alcotest.test_case "identities" `Quick test_constfold_identities;
        Alcotest.test_case "div by zero kept" `Quick
          test_constfold_keeps_div_by_zero;
        Alcotest.test_case "branch folding" `Quick test_constfold_branch;
      ] );
    ( "opt.copyprop",
      [
        Alcotest.test_case "chains" `Quick test_copyprop_chain;
        Alcotest.test_case "kill on redefinition" `Quick
          test_copyprop_kill_on_redef;
      ] );
    ( "opt.cse",
      [
        Alcotest.test_case "basic" `Quick test_cse_basic;
        Alcotest.test_case "store kills loads" `Quick
          test_cse_load_killed_by_store;
        Alcotest.test_case "self reference" `Quick test_cse_self_reference;
      ] );
    ( "opt.dce",
      [
        Alcotest.test_case "dead chain" `Quick test_dce_removes_dead_chain;
        Alcotest.test_case "side effects kept" `Quick
          test_dce_keeps_side_effects;
      ] );
    ( "opt.simplify-cfg",
      [
        Alcotest.test_case "unreachable" `Quick test_simplify_unreachable;
        Alcotest.test_case "jump threading" `Quick
          test_simplify_jump_threading;
        Alcotest.test_case "infinite loop" `Quick
          test_simplify_keeps_infinite_loop;
      ] );
    ( "opt.pipeline",
      [
        Alcotest.test_case "fixpoint" `Quick test_pipeline_fixpoint_terminates;
        Alcotest.test_case "levels" `Quick test_levels;
      ] );
    ( "opt.pass-manager",
      [
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "descr round-trip" `Quick test_descr_roundtrip;
        Alcotest.test_case "descr errors" `Quick test_descr_errors;
        Alcotest.test_case "custom pipeline = O2" `Quick
          test_custom_pipeline_matches_o2;
        Alcotest.test_case "pass-stat accounting" `Quick
          test_pass_stats_accounting;
        Alcotest.test_case "verify-each catches breakage" `Quick
          test_verify_each_catches_breakage;
      ] );
  ]
