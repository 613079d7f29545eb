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

(* __argv leads the data space whatever the program's globals are. *)
let argv_addr = List.assoc Libc.argv_symbol (fst (layout_globals []))

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

let fail fmt =
  Printf.ksprintf (fun m -> failwith ("Link.link_objects: " ^ m)) fmt

(* Give each object its text offset, from [start] in input order; a
   symbol already [taken] or placed twice is a duplicate. *)
let place offsets ~taken start objs =
  List.fold_left
    (fun off (o : Objfile.func_obj) ->
      let sym = o.Objfile.sym in
      if taken sym || Hashtbl.mem offsets sym then
        fail "duplicate symbol %s" sym;
      Hashtbl.replace offsets sym off;
      off + Objfile.code_size o)
    start objs

let copy_code text base (o : Objfile.func_obj) =
  Bytes.blit_string o.Objfile.code 0 text base (Objfile.code_size o)

(* Patch one relocation of an object at text offset [base]: [false] when
   [func] or [global] does not know its symbol. *)
let patch text ~func ~global base reloc =
  let set site v =
    Bytes.set_int32_le text (base + site) v;
    true
  in
  match reloc with
  | Asm.Rel32 (site, sym) -> (
      match func sym with
      (* rel32 is relative to the end of the 4-byte field. *)
      | Some target -> set site (Int32.of_int (target - (base + site + 4)))
      | None -> false)
  | Asm.Abs32 (site, sym) -> (
      match global sym with Some addr -> set site addr | None -> false)

let symbols_of placed =
  List.map (fun ((o : Objfile.func_obj), base) -> (o.Objfile.sym, base)) placed

(* Absolute text offset of every basic-block label, per function — the
   layout map that lets runtime profiles attribute executed offsets back
   to blocks. *)
let blocks_of placed =
  List.map
    (fun ((o : Objfile.func_obj), base) ->
      (o.Objfile.sym, List.map (fun (l, p) -> (l, base + p)) o.Objfile.labels))
    placed

(* The runtime laid out at text offset 0, as far as it can be without
   the user objects: every call between runtime objects and every
   [__argv] address is patched.  [cross] holds the relocations that name
   a symbol outside the runtime, in link order — for the stock runtime,
   crt0's one call to [main]. *)
type prefix = {
  runtime : Objfile.func_obj list;
  code : string;
  offsets : (string, int) Hashtbl.t;  (** runtime symbol -> text offset *)
  symbols : (string * int) list;
  blocks : (string * (Ir.label * int) list) list;
  cross : (Objfile.func_obj * int * Asm.reloc) list;
      (** object, its text offset, the relocation *)
}

let lay_out_prefix runtime =
  let offsets = Hashtbl.create 32 in
  let code = Bytes.create (place offsets ~taken:(fun _ -> false) 0 runtime) in
  let placed =
    List.map
      (fun (o : Objfile.func_obj) -> (o, Hashtbl.find offsets o.Objfile.sym))
      runtime
  in
  let func = Hashtbl.find_opt offsets in
  let global sym = if sym = Libc.argv_symbol then Some argv_addr else None in
  let cross =
    List.concat_map
      (fun ((o : Objfile.func_obj), base) ->
        copy_code code base o;
        List.filter
          (fun r -> not (patch code ~func ~global base r))
          o.Objfile.relocs
        |> List.map (fun r -> (o, base, r)))
      placed
  in
  {
    runtime;
    code = Bytes.unsafe_to_string code;
    offsets;
    symbols = symbols_of placed;
    blocks = blocks_of placed;
    cross;
  }

(* The stock runtime's prefix, laid out once per arity. *)
let prefix_table : (int, prefix) Memo.t = Memo.create ()

let stock_prefix ~main_arity =
  Memo.find_or_add prefix_table main_arity (fun () ->
      lay_out_prefix (runtime_objects ~main_arity))

(* Layout rule: the runtime first, at its fixed offsets, then the user
   objects in input order.  A link copies the prefix, appends the user
   objects and patches the prefix's cross relocations, then the user
   objects' relocations, so errors come in the order a walk over
   [runtime @ objects] meets them. *)
let link_objects ?expect_main_arity ?runtime ~objects ~globals () =
  let main_arity =
    match List.find_opt (fun o -> o.Objfile.sym = "main") objects with
    | None -> fail "no main function"
    | Some o -> o.Objfile.meta.Objfile.arity
  in
  (match expect_main_arity with
  | Some e when e <> main_arity ->
      fail
        "main arity mismatch: object main takes %d argument(s), %d expected"
        main_arity e
  | _ -> ());
  let stock r =
    match Memo.find runtime_table main_arity with
    | Some s -> s == r
    | None -> false
  in
  let prefix =
    match runtime with
    | Some r when not (stock r) -> lay_out_prefix r
    | _ -> stock_prefix ~main_arity
  in
  let user_start = String.length prefix.code in
  let offsets = Hashtbl.create 16 in
  let text =
    Bytes.create
      (place offsets ~taken:(Hashtbl.mem prefix.offsets) user_start objects)
  in
  Bytes.blit_string prefix.code 0 text 0 user_start;
  let func sym =
    match Hashtbl.find_opt offsets sym with
    | Some _ as o -> o
    | None -> Hashtbl.find_opt prefix.offsets sym
  in
  let global_addrs, data_init = layout_globals globals in
  let global sym = List.assoc_opt sym global_addrs in
  let resolve (o : Objfile.func_obj) base reloc =
    if not (patch text ~func ~global base reloc) then
      match reloc with
      | Asm.Rel32 (_, sym) -> fail "%s: undefined function %s" o.Objfile.sym sym
      | Asm.Abs32 (_, sym) -> fail "%s: undefined global %s" o.Objfile.sym sym
  in
  List.iter (fun (o, base, r) -> resolve o base r) prefix.cross;
  let user =
    List.map
      (fun (o : Objfile.func_obj) ->
        let base = Hashtbl.find offsets o.Objfile.sym in
        copy_code text base o;
        List.iter (resolve o base) o.Objfile.relocs;
        (o, base))
      objects
  in
  let entry =
    match func Libc.start_symbol with
    | Some e -> e
    | None -> fail "entry stub missing from runtime objects"
  in
  {
    text = Bytes.unsafe_to_string text;
    text_base;
    symbols = prefix.symbols @ symbols_of user;
    entry;
    user_start;
    block_offsets = prefix.blocks @ blocks_of user;
    globals = global_addrs;
    data_init;
    main_arity;
  }

let symbol_offset (image : image) name =
  match List.assoc_opt name image.symbols with
  | Some o -> o
  | None -> failwith ("Link.symbol_offset: unknown symbol " ^ name)

let user_text image =
  String.sub image.text image.user_start
    (String.length image.text - image.user_start)

(* Image-file framing: a fixed magic plus an explicit version field and
   a payload digest trailer (see {!Frame}).  Version 3 succeeds the two
   bare-magic generations (PSDIMG01/02); their loads now fail with "not
   a PSD image (bad magic)" rather than feeding stale bytes to Marshal. *)
let magic = "PSDIMAGE"
let format_version = 3

let to_bytes (image : image) =
  Frame.encode ~magic ~version:format_version image

let of_bytes ~src framed : image =
  Frame.decode ~magic ~version:format_version ~what:"PSD image" ~src framed

let save (image : image) path =
  Frame.save ~magic ~version:format_version image path

let load path : image =
  Frame.load ~magic ~version:format_version ~what:"PSD image" path
