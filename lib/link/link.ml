type image = {
  text : string;
  text_base : int32;
  symbols : (string * int) list;
  entry : int;
  user_start : int;
  block_offsets : (string * (Ir.label * int) list) list;
  globals : (string * int32) list;
  data_init : (int32 * int32 array) list;
  main_arity : int;
}

let text_base = 0x08048000l
let data_base = 0x1000l
let stack_top = 0x400000l (* 4 MiB *)

let argv_address image =
  match List.assoc_opt Libc.argv_symbol image.globals with
  | Some a -> a
  | None -> failwith "Link.argv_address: __argv missing"

let patch32 text pos (v : int32) =
  Bytes.set text pos (Char.chr (Int32.to_int v land 0xFF));
  Bytes.set text (pos + 1)
    (Char.chr (Int32.to_int (Int32.shift_right_logical v 8) land 0xFF));
  Bytes.set text (pos + 2)
    (Char.chr (Int32.to_int (Int32.shift_right_logical v 16) land 0xFF));
  Bytes.set text (pos + 3)
    (Char.chr (Int32.to_int (Int32.shift_right_logical v 24) land 0xFF))

(* Data-space layout: __argv first, then the program's globals in
   declaration order. *)
let layout_globals globals =
  let globals_with_argv =
    { Ir.gname = Libc.argv_symbol; size_words = Libc.argv_words; init = None }
    :: globals
  in
  let global_addrs, data_init =
    let next = ref data_base in
    List.fold_left
      (fun (addrs, inits) (g : Ir.global) ->
        let addr = !next in
        next := Int32.add !next (Int32.of_int (4 * g.size_words));
        let inits =
          match g.init with Some a -> (addr, a) :: inits | None -> inits
        in
        ((g.gname, addr) :: addrs, inits))
      ([], []) globals_with_argv
  in
  (List.rev global_addrs, data_init)

(* The fixed runtime — crt0 for [main_arity] plus the library — as
   relocatable objects, memoized per arity: every link of every variant
   composes the same undiversified runtime objects, exactly as the
   paper's binaries reuse the stock crt0/libc objects. *)
let runtime_table : (int, Objfile.func_obj list) Memo.t = Memo.create ()

let runtime_objects ~main_arity =
  Memo.find_or_add runtime_table main_arity (fun () ->
      List.map
        (fun (f : Asm.func) ->
          Objfile.of_asm
            ~arity:(if f.Asm.name = Libc.start_symbol then main_arity else 0)
            f)
        (Libc.start ~main:"main" ~main_arity :: Libc.funcs))

let link_objects ?expect_main_arity ?runtime ~objects ~globals () =
  let main_arity =
    match List.find_opt (fun o -> o.Objfile.sym = "main") objects with
    | None -> failwith "Link.link_objects: no main function"
    | Some o -> o.Objfile.meta.Objfile.arity
  in
  (match expect_main_arity with
  | Some e when e <> main_arity ->
      failwith
        (Printf.sprintf
           "Link.link_objects: main arity mismatch: object main takes %d \
            argument(s), %d expected"
           main_arity e)
  | _ -> ());
  let runtime =
    match runtime with Some r -> r | None -> runtime_objects ~main_arity
  in
  (* Layout rule: fixed runtime objects first, at their fixed offsets,
     then the user objects in input order. *)
  let all = runtime @ objects in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (o : Objfile.func_obj) ->
      if Hashtbl.mem seen o.Objfile.sym then
        failwith ("Link.link_objects: duplicate symbol " ^ o.Objfile.sym);
      Hashtbl.replace seen o.Objfile.sym ())
    all;
  let global_addrs, data_init = layout_globals globals in
  let offsets = Hashtbl.create 16 in
  let total =
    List.fold_left
      (fun off (o : Objfile.func_obj) ->
        Hashtbl.replace offsets o.Objfile.sym off;
        off + Objfile.code_size o)
      0 all
  in
  let user_start =
    List.fold_left (fun off o -> off + Objfile.code_size o) 0 runtime
  in
  let text = Bytes.create total in
  List.iter
    (fun (o : Objfile.func_obj) ->
      let base = Hashtbl.find offsets o.Objfile.sym in
      Bytes.blit_string o.Objfile.code 0 text base (Objfile.code_size o);
      List.iter
        (fun reloc ->
          match reloc with
          | Asm.Rel32 (site, sym) -> (
              match Hashtbl.find_opt offsets sym with
              | Some target ->
                  (* rel32 is relative to the end of the 4-byte field. *)
                  patch32 text (base + site)
                    (Int32.of_int (target - (base + site + 4)))
              | None ->
                  failwith
                    (Printf.sprintf
                       "Link.link_objects: %s: undefined function %s"
                       o.Objfile.sym sym))
          | Asm.Abs32 (site, sym) -> (
              match List.assoc_opt sym global_addrs with
              | Some addr -> patch32 text (base + site) addr
              | None ->
                  failwith
                    (Printf.sprintf
                       "Link.link_objects: %s: undefined global %s"
                       o.Objfile.sym sym)))
        o.Objfile.relocs)
    all;
  let entry =
    match Hashtbl.find_opt offsets Libc.start_symbol with
    | Some e -> e
    | None ->
        failwith "Link.link_objects: entry stub missing from runtime objects"
  in
  let symbols =
    List.map
      (fun (o : Objfile.func_obj) ->
        (o.Objfile.sym, Hashtbl.find offsets o.Objfile.sym))
      all
  in
  let block_offsets =
    (* Absolute text offset of every basic-block label, per function —
       the layout map that lets runtime profiles attribute executed
       offsets back to blocks. *)
    List.map
      (fun (o : Objfile.func_obj) ->
        let base = Hashtbl.find offsets o.Objfile.sym in
        (o.Objfile.sym, List.map (fun (l, p) -> (l, base + p)) o.Objfile.labels))
      all
  in
  {
    text = Bytes.to_string text;
    text_base;
    symbols;
    entry;
    user_start;
    block_offsets;
    globals = global_addrs;
    data_init;
    main_arity;
  }

let symbol_offset image name =
  match List.assoc_opt name image.symbols with
  | Some o -> o
  | None -> failwith ("Link.symbol_offset: unknown symbol " ^ name)

let user_text image =
  String.sub image.text image.user_start
    (String.length image.text - image.user_start)

(* Image-file framing: a fixed magic plus an explicit version field and
   a payload digest trailer (see {!Frame}).  Version 3 succeeds the two
   bare-magic generations (PSDIMG01/02); their loads now fail with "not
   a PSD image file" rather than feeding stale bytes to Marshal. *)
let magic = "PSDIMAGE"
let format_version = 3

let to_bytes image =
  Frame.to_string ~magic ~version:format_version
    ~payload:(Marshal.to_string image [])

let of_bytes ~src framed =
  let payload =
    Frame.of_string ~magic ~version:format_version ~what:"PSD image" ~src
      framed
  in
  match (Marshal.from_string payload 0 : image) with
  | image -> image
  | exception _ -> failwith (src ^ ": corrupt PSD image (bad payload)")

let save image path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_bytes image))

let load path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_bytes ~src:path contents
