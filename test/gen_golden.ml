(* Print the pinned whole-image fixture, test/golden_nop_digests.json.

   For every workload: the undiversified baseline, then every config of
   [Fixture_configs.all] at versions 0-2, each built by
   [Driver.diversify_linked] from the trained profile.  A cell records the MD5 of the final .text
   and [layout_md5], an MD5 over a canonical text rendering of the rest
   of the image (symbols, block offsets, entry, user_start, globals,
   data_init, main arity).  The rendering uses only integer and string
   formatting, so it is byte-stable across compiler versions.

   `dune runtest` regenerates the fixture into _build and diffs it
   against the committed file; after a change that is meant to alter
   the images, `dune promote` refreshes it. *)

let layout_md5 (img : Link.image) =
  let b = Buffer.create 4096 in
  List.iter (fun (s, o) -> Printf.bprintf b "symbol %s %d\n" s o) img.symbols;
  List.iter
    (fun (f, blocks) ->
      Printf.bprintf b "blocks %s" f;
      List.iter (fun (l, o) -> Printf.bprintf b " %d:%d" l o) blocks;
      Buffer.add_char b '\n')
    img.block_offsets;
  Printf.bprintf b "entry %d\nuser_start %d\n" img.entry img.user_start;
  List.iter (fun (g, a) -> Printf.bprintf b "global %s %ld\n" g a) img.globals;
  List.iter
    (fun (a, words) ->
      Printf.bprintf b "data %ld" a;
      Array.iter (Printf.bprintf b " %ld") words;
      Buffer.add_char b '\n')
    img.data_init;
  Printf.bprintf b "main_arity %d\n" img.main_arity;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  let cells = ref [] in
  let cell (w : Workload.t) cname version (img : Link.image) =
    cells :=
      Printf.sprintf
        "    {\"workload\": %S, \"config\": %S, \"version\": %d, \"md5\": %S, \
         \"layout_md5\": %S}"
        w.name cname version
        (Digest.to_hex (Digest.string img.text))
        (layout_md5 img)
      :: !cells
  in
  List.iter
    (fun (w : Workload.t) ->
      let c = Driver.compile_cached ~name:w.name w.source in
      let profile = Driver.train_cached c ~args:w.train_args in
      cell w "baseline" 0 (Driver.link_baseline c);
      List.iter
        (fun (cname, config) ->
          for version = 0 to 2 do
            cell w cname version
              (fst (Driver.diversify_linked c ~config ~profile ~version))
          done)
        Fixture_configs.all)
    Workloads.all;
  print_string
    "{\n\
    \  \"schema\": \"psd-golden-nop-digests/2\",\n\
    \  \"versions\": 3,\n\
    \  \"cells\": [\n";
  print_string (String.concat ",\n" (List.rev !cells));
  print_string "\n  ]\n}\n"
