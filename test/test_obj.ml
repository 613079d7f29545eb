(* The separate-compilation layer: object-format framing and round-trips,
   linker error paths, the content-addressed store's rebuild guarantees,
   and the equivalence suite pinning the object pipeline's NOP pass to
   the seed diversifier across every workload × config × seed. *)

let counter name = Metrics.counter_value (Metrics.counter name)

let compile ?(name = "obj-test") src = Driver.compile ~name src

let unit_of (c : Driver.compiled) =
  {
    Objfile.uname = c.Driver.name;
    funcs = c.Driver.objects;
    globals = c.Driver.modul.Ir.globals;
  }

let with_temp f =
  let path = Filename.temp_file "psd_obj" ".o" in
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
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let expect_failure ~substring f =
  match f () with
  | exception Failure m ->
      Alcotest.(check bool)
        (Printf.sprintf "failure %S mentions %S" m substring)
        true (contains m substring)
  | _ -> Alcotest.fail ("expected Failure mentioning " ^ substring)

(* ---------------- object format ---------------- *)

let test_unit_roundtrip () =
  let c =
    compile
      "global int g[3]; int f(int x) { g[0] = x; return x * 2; } \
       int main(int n) { return f(n) + g[0]; }"
  in
  let unit = unit_of c in
  with_temp (fun path ->
      Objfile.save unit path;
      let loaded = Objfile.load path in
      Alcotest.(check bool) "unit round-trips structurally" true (unit = loaded);
      (* Linking the loaded objects reproduces the baseline image. *)
      let relinked =
        Link.link_objects ~objects:loaded.Objfile.funcs
          ~globals:loaded.Objfile.globals ()
      in
      let baseline = Driver.link_baseline c in
      Alcotest.(check string)
        "relinked text identical" baseline.Link.text relinked.Link.text;
      Alcotest.(check bool)
        "symbols identical" true
        (baseline.Link.symbols = relinked.Link.symbols))

let test_object_bad_magic () =
  with_temp (fun path ->
      write_file path "NOTANOBJECTFILE-PADDING-PADDING-PADDING";
      expect_failure ~substring:"magic" (fun () -> Objfile.load path))

let test_object_truncated () =
  let c = compile "int main() { return 1; }" in
  with_temp (fun path ->
      Objfile.save (unit_of c) path;
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents / 2));
      expect_failure ~substring:"" (fun () -> Objfile.load path);
      (* A cut below even the header is reported as truncation. *)
      write_file path (String.sub contents 0 9);
      expect_failure ~substring:"truncated" (fun () -> Objfile.load path))

let test_object_corrupted () =
  let c = compile "int main() { return 2; }" in
  with_temp (fun path ->
      Objfile.save (unit_of c) path;
      let contents = Bytes.of_string (read_file path) in
      (* Flip one payload byte: the digest trailer must catch it. *)
      let pos = Bytes.length contents / 2 in
      Bytes.set contents pos
        (Char.chr (Char.code (Bytes.get contents pos) lxor 0xFF));
      write_file path (Bytes.to_string contents);
      expect_failure ~substring:"corrupt" (fun () -> Objfile.load path))

let test_object_version_mismatch () =
  let c = compile "int main() { return 3; }" in
  with_temp (fun path ->
      let unit = unit_of c in
      Frame.write ~magic:"PSDOBJCT"
        ~version:(Objfile.format_version + 1)
        ~payload:(Marshal.to_string unit []) path;
      expect_failure ~substring:"version" (fun () -> Objfile.load path))

let test_image_truncated_and_corrupted () =
  let c = compile "int main() { return 4; }" in
  let image = Driver.link_baseline c in
  with_temp (fun path ->
      Link.save image path;
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents - 5));
      expect_failure ~substring:"" (fun () -> Link.load path);
      let bytes = Bytes.of_string contents in
      let pos = Bytes.length bytes / 2 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x55));
      write_file path (Bytes.to_string bytes);
      expect_failure ~substring:"corrupt" (fun () -> Link.load path))

(* Object round-trip is an identity property under the fuzz generator's
   programs: save→load preserves every field and every relink. *)
let test_roundtrip_fuzz_property () =
  for index = 0 to 19 do
    let p = Gen.generate ~seed:77L ~index in
    let c = Driver.compile ~name:p.Gen.name p.Gen.source in
    let unit = unit_of c in
    with_temp (fun path ->
        Objfile.save unit path;
        let loaded = Objfile.load path in
        if unit <> loaded then
          Alcotest.failf "round-trip changed unit for %s" p.Gen.name;
        let relinked =
          Link.link_objects ~objects:loaded.Objfile.funcs
            ~globals:loaded.Objfile.globals ()
        in
        let baseline = Driver.link_baseline c in
        if baseline.Link.text <> relinked.Link.text then
          Alcotest.failf "relink diverged for %s" p.Gen.name)
  done

(* ---------------- linker error paths ---------------- *)

let objects_of src =
  let c = compile src in
  (c, c.Driver.objects)

let test_duplicate_symbol_named () =
  let _, a = objects_of "int f(int x) { return x; } int main() { return f(1); }" in
  let dup = List.filter (fun o -> o.Objfile.sym = "f") a in
  expect_failure ~substring:"duplicate symbol f" (fun () ->
      Link.link_objects ~objects:(a @ dup) ~globals:[] ())

let test_unresolved_function_named () =
  let c, objs =
    objects_of "int f(int x) { return x; } int main() { return f(1); }"
  in
  (* Drop f's object: main's call relocation cannot resolve. *)
  let without_f = List.filter (fun o -> o.Objfile.sym <> "f") objs in
  expect_failure ~substring:"undefined function f" (fun () ->
      Link.link_objects ~objects:without_f ~globals:c.Driver.modul.Ir.globals ())

let test_unresolved_global_named () =
  let c, objs =
    objects_of "global int gv[2]; int main() { gv[0] = 1; return gv[0]; }"
  in
  ignore c;
  expect_failure ~substring:"undefined global gv" (fun () ->
      Link.link_objects ~objects:objs ~globals:[] ())

let test_main_arity_mismatch_named () =
  let _, objs = objects_of "int main(int a, int b) { return a + b; }" in
  expect_failure ~substring:"main arity mismatch" (fun () ->
      Link.link_objects ~expect_main_arity:1 ~objects:objs ~globals:[] ())

let test_missing_main_named () =
  let c = compile "int f(int x) { return x; } int main() { return f(0); }" in
  let without_main =
    List.filter (fun o -> o.Objfile.sym <> "main") c.Driver.objects
  in
  expect_failure ~substring:"no main" (fun () ->
      Link.link_objects ~objects:without_main ~globals:[] ())

(* ---------------- the content-addressed store ---------------- *)

let test_warm_recompile_skips_lowering () =
  let src =
    "int sq(int x) { return x * x; } int tw(int x) { return x + x; } \
     int main(int n) { return sq(n) + tw(n); }"
  in
  let _ = Driver.compile ~name:"warm-a" src in
  let isel0 = counter "machine.isel.runs" in
  let hits0 = counter "obj.store.hit" in
  let c2 = Driver.compile ~name:"warm-b" src in
  Alcotest.(check int)
    "no function re-lowered" 0
    (Int64.to_int (Int64.sub (counter "machine.isel.runs") isel0));
  Alcotest.(check int)
    "every function a store hit" 3
    (Int64.to_int (Int64.sub (counter "obj.store.hit") hits0));
  (* The cached objects still link and run. *)
  let image = Driver.link_baseline c2 in
  let r = Driver.run_image image ~args:[ 5l ] in
  Alcotest.(check int32) "still correct" 35l r.Sim.status

let test_warm_population_zero_lowering () =
  let src =
    "int acc(int x) { return x * 7; } int main(int n) { return acc(n) & 63; }"
  in
  let _ = Driver.compile ~name:"warm-pop" src in
  Driver.clear_caches ~store:false ();
  let isel0 = counter "machine.isel.runs" in
  let live0 = counter "machine.liveness.runs" in
  let ra0 = counter "machine.regalloc.runs" in
  let c = Driver.compile ~name:"warm-pop" src in
  let config = List.assoc "p0-30" Config.paper_configs in
  let imgs =
    Driver.population c ~config ~profile:Profile.empty ~n:5
  in
  Alcotest.(check int) "population built" 5 (List.length imgs);
  Alcotest.(check int)
    "zero isel runs" 0
    (Int64.to_int (Int64.sub (counter "machine.isel.runs") isel0));
  Alcotest.(check int)
    "zero liveness runs" 0
    (Int64.to_int (Int64.sub (counter "machine.liveness.runs") live0));
  Alcotest.(check int)
    "zero regalloc runs" 0
    (Int64.to_int (Int64.sub (counter "machine.regalloc.runs") ra0))

let test_perturb_one_function_relowers_one () =
  let part body =
    "int stable(int x) { return x * 3; } int tweaked(int y) { " ^ body
    ^ " } int main(int n) { return stable(n) + tweaked(n); }"
  in
  let _ = Driver.compile ~name:"incr-a" (part "return y + 4;") in
  let isel0 = counter "machine.isel.runs" in
  let hits0 = counter "obj.store.hit" in
  let _ = Driver.compile ~name:"incr-b" (part "return y + 5;") in
  Alcotest.(check int)
    "exactly one function re-lowered" 1
    (Int64.to_int (Int64.sub (counter "machine.isel.runs") isel0));
  Alcotest.(check int)
    "the other two hit the store" 2
    (Int64.to_int (Int64.sub (counter "obj.store.hit") hits0))

let test_store_eviction () =
  let store = Store.objects in
  Fun.protect
    ~finally:(fun () ->
      Memo.set_capacity store Store.capacity;
      Memo.clear store)
    (fun () ->
      Memo.clear store;
      (* Capacity 2, three keys: the least recently *used* one must go. *)
      Memo.set_capacity store 2;
      let key sym = Store.key ~ir_digest:sym ~pipeline:"-" in
      let dummy sym =
        Objfile.of_asm ~arity:0
          { Asm.name = sym; items = [ Asm.Label 0; Asm.Ins Insn.Ret ] }
      in
      let put sym =
        ignore (Memo.find_or_add store (key sym) (fun () -> dummy sym))
      in
      let ev0 = counter "obj.store.evict" in
      put "a";
      put "b";
      ignore (Memo.find store (key "a")) (* touch a: b becomes the LRU *);
      put "c";
      Alcotest.(check int) "bounded at its capacity" 2 (Memo.length store);
      Alcotest.(check int)
        "one eviction counted" 1
        (Int64.to_int (Int64.sub (counter "obj.store.evict") ev0));
      Alcotest.(check bool)
        "LRU victim gone" true
        (Memo.find store (key "b") = None);
      Alcotest.(check bool)
        "recently-used entry kept" true
        (Memo.find store (key "a") <> None);
      Alcotest.(check bool)
        "newest entry kept" true
        (Memo.find store (key "c") <> None))

(* ---------------- equivalence suite ---------------- *)

(* The object path reproduces the seed diversifier: for every workload ×
   paper config × version, with an empty profile (the golden fixture
   pins trained profiles), [Driver.diversify_linked] builds the same
   whole image as the seed's program-wide [Nop_insert.run_program] under
   the seed RNG derivation, linked from freshly wrapped objects; and the
   baseline built from stored objects equals one built from fresh
   wraps. *)
let link_fresh (c : Driver.compiled) funcs =
  let objects =
    List.map2
      (fun (o : Objfile.func_obj) f ->
        Objfile.of_asm ~arity:o.Objfile.meta.Objfile.arity f)
      c.objects funcs
  in
  Link.link_objects ~objects ~globals:c.modul.Ir.globals ()

let check_image_equal ~what (want : Link.image) (got : Link.image) =
  Alcotest.(check string)
    (what ^ ": .text digest")
    (Digest.to_hex (Digest.string want.Link.text))
    (Digest.to_hex (Digest.string got.Link.text));
  Alcotest.(check bool) (what ^ ": whole image") true (want = got)

let test_workload_equivalence (w : Workload.t) () =
  let c = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  check_image_equal ~what:(w.Workload.name ^ "/baseline")
    (link_fresh c c.Driver.asm) (Driver.link_baseline c);
  List.iter
    (fun (_, config) ->
      let cname = Config.name config in
      for version = 0 to 2 do
        let rng =
          Rng.of_labels config.Config.seed
            [ c.Driver.name; cname; string_of_int version ]
        in
        let funcs, _ =
          Nop_insert.run_program ~config ~profile:Profile.empty ~rng
            c.Driver.asm
        in
        let obj_img, _ =
          Driver.diversify_linked c ~config ~profile:Profile.empty ~version
        in
        check_image_equal
          ~what:(Printf.sprintf "%s/%s/v%d" w.Workload.name cname version)
          (link_fresh c funcs) obj_img
      done)
    Config.paper_configs

let suite =
  [
    ( "obj.format",
      [
        Alcotest.test_case "unit round-trip" `Quick test_unit_roundtrip;
        Alcotest.test_case "bad magic" `Quick test_object_bad_magic;
        Alcotest.test_case "truncated" `Quick test_object_truncated;
        Alcotest.test_case "corrupted" `Quick test_object_corrupted;
        Alcotest.test_case "version mismatch" `Quick
          test_object_version_mismatch;
        Alcotest.test_case "image truncated/corrupted" `Quick
          test_image_truncated_and_corrupted;
        Alcotest.test_case "fuzz round-trip identity" `Slow
          test_roundtrip_fuzz_property;
      ] );
    ( "obj.linker-errors",
      [
        Alcotest.test_case "duplicate symbol named" `Quick
          test_duplicate_symbol_named;
        Alcotest.test_case "unresolved function named" `Quick
          test_unresolved_function_named;
        Alcotest.test_case "unresolved global named" `Quick
          test_unresolved_global_named;
        Alcotest.test_case "main arity mismatch named" `Quick
          test_main_arity_mismatch_named;
        Alcotest.test_case "missing main" `Quick test_missing_main_named;
      ] );
    ( "obj.store",
      [
        Alcotest.test_case "warm recompile skips lowering" `Quick
          test_warm_recompile_skips_lowering;
        Alcotest.test_case "warm population zero lowering" `Quick
          test_warm_population_zero_lowering;
        Alcotest.test_case "perturb one function" `Quick
          test_perturb_one_function_relowers_one;
        Alcotest.test_case "LRU eviction" `Quick test_store_eviction;
      ] );
    ( "obj.equivalence",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case w.Workload.name `Slow
            (test_workload_equivalence w))
        Workloads.all );
  ]
