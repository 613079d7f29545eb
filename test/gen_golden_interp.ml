(* Print the pinned IR-interpreter fixture, test/golden_interp.json.

   For every workload: one cell per (opt level, input) in O2/train,
   O2/ref and O0/train.  A cell records what [Interp.run] observes —
   the return value, the MD5 of the output, the exact step count — and
   one MD5 per count table (blocks, edges, calls), each over the table
   rendered one entry a line in sorted order, so the digests do not
   depend on the tables' iteration order.

   `dune runtest` regenerates the fixture into _build and diffs it
   against the committed file; after a change meant to alter the
   interpreter's observations, `dune promote` refreshes it. *)

let md5_lines lines =
  Digest.to_hex (Digest.string (String.concat "" (List.sort compare lines)))

let table_md5 render tbl =
  md5_lines (Hashtbl.fold (fun k v acc -> render k v :: acc) tbl [])

let () =
  let cells = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (opt, input, args) ->
          let c = Driver.compile ~opt ~name:w.name w.source in
          let r = Driver.run_ir c ~args in
          let k = r.Interp.counts in
          cells :=
            Printf.sprintf
              "    {\"workload\": %S, \"opt\": %S, \"input\": %S, \"ret\": %ld, \
               \"output_md5\": %S, \"steps\": %Ld, \"blocks_md5\": %S, \
               \"edges_md5\": %S, \"calls_md5\": %S}"
              w.name
              (Pipeline.level_name opt)
              input r.ret
              (Digest.to_hex (Digest.string r.output))
              r.steps
              (table_md5 (fun (f, l) v -> Printf.sprintf "%s %d %Ld\n" f l v)
                 k.blocks)
              (table_md5
                 (fun (f, s, d) v -> Printf.sprintf "%s %d %d %Ld\n" f s d v)
                 k.edges)
              (table_md5 (fun f v -> Printf.sprintf "%s %Ld\n" f v) k.calls)
            :: !cells)
        [
          (Pipeline.O2, "train", w.train_args);
          (Pipeline.O2, "ref", w.ref_args);
          (Pipeline.O0, "train", w.train_args);
        ])
    Workloads.all;
  print_string
    "{\n  \"schema\": \"psd-golden-interp/1\",\n  \"cells\": [\n";
  print_string (String.concat ",\n" (List.rev !cells));
  print_string "\n  ]\n}\n"
