(* Print the pinned gadget-census fixture, test/golden_gadgets.json.

   For every workload, on its baseline image and on versions 0-4 of the
   p0-30 configuration (the evaluation cell's population config), one
   cell with four MD5s:

   - [baseline_keys_md5]: the baseline's [Population.section_keys];
   - [version_keys_md5]: versions 0-4's [section_keys], in order;
   - [survivors_md5]: the offsets of versions 0-4's
     [Survivor.surviving_gadgets] against the baseline, in order;
   - [insns_md5]: [Insn.to_string] at every decodable offset of the
     baseline, one "offset text" line each.

   It also pins Table 3 itself: [table3] is [Population.report] at the
   thresholds 2, 5 and 12 over p0-30 versions 0-24, one [[k, pairs]]
   entry per threshold.

   Every digest is over lines built with integer and string formatting
   only, so the fixture is byte-stable across compiler versions.

   `dune runtest` regenerates the fixture into _build and diffs it
   against the committed file; after a change meant to alter the census,
   `dune promote` refreshes it. *)

let versions = List.init 5 Fun.id
let table3_versions = 25

let md5 lines = Digest.to_hex (Digest.string (String.concat "" lines))

(* A key renders as its offset and its instructions' [Insn.to_string]
   texts joined by ";". *)
let keys_lines keys =
  List.map
    (fun (off, insns) ->
      Printf.sprintf "%d %s\n" off (String.concat ";" (List.map Insn.to_string insns)))
    keys

let config =
  match Config.of_spec "p0-30" with
  | Ok c -> c
  | Error e -> failwith ("gen_golden_gadgets: " ^ e)

let insn_lines text =
  let lines = ref [] in
  for pos = String.length text - 1 downto 0 do
    match Decode.insn ~pos text with
    | Some (i, _) -> lines := Printf.sprintf "%d %s\n" pos (Insn.to_string i) :: !lines
    | None -> ()
  done;
  !lines

let () =
  let cells =
    List.map
      (fun (w : Workload.t) ->
        let c = Driver.compile_cached ~name:w.name w.source in
        let profile = Driver.train_cached c ~args:w.train_args in
        let original = (Driver.link_baseline c).Link.text in
        let texts =
          List.map
            (fun version ->
              (fst (Driver.diversify_linked c ~config ~profile ~version)).Link.text)
            versions
        in
        let per_version f =
          md5
            (List.mapi
               (fun v text -> Printf.sprintf "version %d\n%s" v (String.concat "" (f text)))
               texts)
        in
        let table3 =
          Population.report ~thresholds:[ 2; 5; 12 ]
            (Driver.population c ~config ~profile ~n:table3_versions
               ~init:(Population.create ())
               (fun counts (img : Link.image) ->
                 Population.add counts (Population.section_keys img.Link.text);
                 counts))
        in
        Printf.sprintf
          "    {\"workload\": %S, \"baseline_keys_md5\": %S, \
           \"version_keys_md5\": %S, \"survivors_md5\": %S, \"insns_md5\": %S, \
           \"table3\": [%s]}"
          w.name
          (md5 (keys_lines (Population.section_keys original)))
          (per_version (fun text -> keys_lines (Population.section_keys text)))
          (per_version (fun diversified ->
               List.map
                 (fun (g : Finder.t) -> Printf.sprintf "%d\n" g.offset)
                 (Survivor.surviving_gadgets ~original ~diversified ())))
          (md5 (insn_lines original))
          (String.concat ", "
             (List.map
                (fun (k, n) -> Printf.sprintf "[%d, %d]" k n)
                table3.Population.at_least)))
      Workloads.all
  in
  print_string "{\n  \"schema\": \"psd-golden-gadgets/1\",\n  \"cells\": [\n";
  print_string (String.concat ",\n" cells);
  print_string "\n  ]\n}\n"
