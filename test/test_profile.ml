(* Tests for the profiling machinery: block counts, serialization, and the
   optimal edge-counter placement with flow reconstruction. *)

let compile src = Driver.compile ~name:"prof-test" src

let loop_src =
  {|
  int work(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      if (i % 2 == 0) acc = acc + i;
      else acc = acc - 1;
    }
    return acc;
  }
  int main(int n) {
    int total = 0;
    for (int r = 0; r < 3; r = r + 1) total = total + work(n);
    return total;
  }
  |}

let test_collect_counts () =
  let c = compile loop_src in
  let profile = Driver.train c ~args:[ 10l ] in
  Alcotest.(check bool) "profile not empty" false (Profile.is_empty profile);
  (* work's loop body blocks run 3 * 10 times in total across both arms;
     the maximum block count must be at least the loop condition count. *)
  Alcotest.(check bool)
    "max count at least 30" true
    (Profile.max_count profile >= 30L);
  Alcotest.(check int64) "unknown block is cold" 0L
    (Profile.block_count profile ~func:"work" 999)

let test_serialization_roundtrip () =
  let c = compile loop_src in
  let p = Driver.train c ~args:[ 9l ] in
  let p' = Profile.of_string (Profile.to_string p) in
  Alcotest.(check string) "roundtrip" (Profile.to_string p) (Profile.to_string p')

let test_serialization_errors () =
  (match Profile.of_string "bad line here extra" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on malformed line");
  (match Profile.of_string "f notanint 3" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on bad number");
  let rejects what expected text =
    match Profile.of_string text with
    | exception Failure msg -> Alcotest.(check string) what expected msg
    | _ -> Alcotest.failf "%s: expected a failure" what
  in
  rejects "negative count" "Profile.of_string: line 2: negative count -4"
    "main 0 3\nmain 1 -4\n";
  rejects "duplicate entry" "Profile.of_string: line 4: duplicate entry for f 2"
    "f 2 7\n\nmain 0 1\nf 2 7\n";
  rejects "line numbers count blank lines"
    "Profile.of_string: line 3: bad line: f x 1" "\n\nf x 1\n";
  Alcotest.(check bool) "a zero count is accepted" false
    (Profile.is_empty (Profile.of_string "f 1 0\n"))

let test_median_nonzero () =
  let counts = Hashtbl.create 8 in
  Hashtbl.replace counts ("f", 0) 1L;
  Hashtbl.replace counts ("f", 1) 100L;
  Hashtbl.replace counts ("f", 2) 10L;
  Hashtbl.replace counts ("f", 3) 0L;
  let p = Profile.of_block_counts counts in
  Alcotest.(check (float 1e-9)) "median skips zeros" 10.0 (Profile.median_nonzero p)

(* ------------------------------------------------------------------ *)
(* Spanning-tree counter placement. *)

(* Measured edge counts for one function from an interpreter run,
   extended with the virtual exit edges. *)
let measured_edges (c : Driver.compiled) fname (r : Interp.result) =
  let f = Ir.find_func c.modul fname in
  let entry = (List.hd f.blocks).Ir.label in
  let count (s, d) =
    if s = Spanning.exit_label then
      Option.value (Hashtbl.find_opt r.counts.calls fname) ~default:0L
    else if d = Spanning.exit_label then
      (* A returning block exits once per execution. *)
      Option.value (Hashtbl.find_opt r.counts.blocks (fname, s)) ~default:0L
    else
      Option.value (Hashtbl.find_opt r.counts.edges (fname, s, d)) ~default:0L
  in
  ignore entry;
  count

let check_reconstruction src args fname =
  let c = compile src in
  let r = Driver.run_ir c ~args in
  let f = Ir.find_func c.modul fname in
  let count = measured_edges c fname r in
  let placement = Spanning.place ~weights:count f in
  (* The instrumented program only measures the non-tree edges; the rest
     must be recoverable exactly. *)
  let reconstructed = Spanning.reconstruct placement ~measured:count in
  List.iter
    (fun (e, v) ->
      let expected = count e in
      if v <> expected then
        Alcotest.failf "%s: edge (%d,%d): reconstructed %Ld, measured %Ld"
          fname (fst e) (snd e) v expected)
    reconstructed;
  (* Block counts derived from edges match the interpreter's. *)
  let blocks = Spanning.block_counts_of_edges f reconstructed in
  List.iter
    (fun (l, v) ->
      let expected =
        Option.value (Hashtbl.find_opt r.counts.blocks (fname, l)) ~default:0L
      in
      if v <> expected then
        Alcotest.failf "%s: block L%d: derived %Ld, measured %Ld" fname l v
          expected)
    blocks

let test_reconstruct_loop () = check_reconstruction loop_src [ 10l ] "work"
let test_reconstruct_main () = check_reconstruction loop_src [ 10l ] "main"

let test_reconstruct_branchy () =
  check_reconstruction
    {|
    int f(int n) {
      int acc = 0;
      for (int i = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { if (i % 2 == 0) acc = acc + 2; else acc = acc - 1; }
        else { while (acc > 100) acc = acc / 2; acc = acc + i; }
      }
      return acc;
    }
    int main(int n) { return f(n * 7); }
    |}
    [ 13l ] "f"

let test_reconstruct_early_return () =
  check_reconstruction
    {|
    int f(int n) {
      if (n < 0) return 0 - 1;
      if (n == 0) return 0;
      int s = 0;
      for (int i = 0; i < n; i = i + 1) s = s + i;
      return s;
    }
    int main(int n) { return f(n) + f(0 - n) + f(0); }
    |}
    [ 6l ] "f"

let test_placement_structure () =
  let c = compile loop_src in
  let f = Ir.find_func c.modul "work" in
  let p = Spanning.place f in
  let n_nodes =
    List.length
      (List.sort_uniq compare
         (List.concat_map (fun (a, b) -> [ a; b ]) p.Spanning.edges))
  in
  (* A spanning tree has |V| - 1 edges; counters live on the rest. *)
  Alcotest.(check int) "tree size" (n_nodes - 1) (List.length p.Spanning.tree);
  Alcotest.(check int) "partition"
    (List.length p.Spanning.edges)
    (List.length p.Spanning.tree + List.length p.Spanning.instrumented);
  (* Fewer counters than edges: instrumentation is cheaper than naive
     per-edge counting. *)
  Alcotest.(check bool) "saves counters" true
    (List.length p.Spanning.instrumented < List.length p.Spanning.edges)

let test_max_spanning_prefers_hot () =
  let c = compile loop_src in
  let r = Driver.run_ir c ~args:[ 50l ] in
  let f = Ir.find_func c.modul "work" in
  let count = measured_edges c "work" r in
  let p = Spanning.place ~weights:count f in
  (* The hottest edge must be in the tree (uninstrumented): that is the
     entire point of the maximum spanning tree. *)
  let hottest =
    List.fold_left
      (fun best e -> if count e > count best then e else best)
      (List.hd p.Spanning.edges) p.Spanning.edges
  in
  Alcotest.(check bool) "hottest edge uninstrumented" true
    (List.mem hottest p.Spanning.tree);
  (* Total instrumented weight <= total tree weight. *)
  let sum es = List.fold_left (fun a e -> Int64.add a (count e)) 0L es in
  Alcotest.(check bool) "counter weight minimized" true
    (sum p.Spanning.instrumented <= sum p.Spanning.tree)

let suite =
  [
    ( "profile.counts",
      [
        Alcotest.test_case "collect" `Quick test_collect_counts;
        Alcotest.test_case "serialization roundtrip" `Quick
          test_serialization_roundtrip;
        Alcotest.test_case "serialization errors" `Quick
          test_serialization_errors;
        Alcotest.test_case "median nonzero" `Quick test_median_nonzero;
      ] );
    ( "profile.spanning",
      [
        Alcotest.test_case "reconstruct loop func" `Quick test_reconstruct_loop;
        Alcotest.test_case "reconstruct main" `Quick test_reconstruct_main;
        Alcotest.test_case "reconstruct branchy" `Quick
          test_reconstruct_branchy;
        Alcotest.test_case "reconstruct early returns" `Quick
          test_reconstruct_early_return;
        Alcotest.test_case "placement structure" `Quick
          test_placement_structure;
        Alcotest.test_case "max tree prefers hot edges" `Quick
          test_max_spanning_prefers_hot;
      ] );
  ]
