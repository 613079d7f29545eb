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
            ~arity:(if Asm.name f = Libc.start_symbol then main_arity else 0)
            f)
        (Libc.start ~main:"main" ~main_arity :: Libc.funcs))

let fail fmt =
  Printf.ksprintf (fun m -> failwith ("Link.link_objects: " ^ m)) fmt

let copy_code text base (o : Objfile.func_obj) =
  Bytes.blit_string o.Objfile.code 0 text base (Objfile.code_size o)

(* Absolute text offset of every basic-block label of an object placed
   at [base] — the layout map that lets runtime profiles attribute
   executed offsets back to blocks. *)
let blocks_at (o : Objfile.func_obj) base =
  (o.Objfile.sym, List.map (fun (l, p) -> (l, base + p)) o.Objfile.labels)

(* Where a function symbol lands: a user object, by its index in the
   object list, or a runtime offset. *)
type target = User of int | Runtime of int

(* A relocation's resolution, one int so that a plan's are flat arrays:
   a runtime offset or a data address as itself, user object [i] as
   [-(i + 2)], and an undefined symbol as [-1]. *)
let undefined = -1

let resolve ~func ~global = function
  | Asm.Rel32 (_, sym) -> (
      match func sym with
      | Some (Runtime off) -> off
      | Some (User i) -> -(i + 2)
      | None -> undefined)
  | Asm.Abs32 (_, sym) -> (
      match global sym with Some a -> Int32.to_int a | None -> undefined)

(* Patch one relocation of [o], placed at text offset [base], with its
   resolution; [user i] is the text offset of user object [i]. *)
let apply text ~user (o : Objfile.func_obj) base reloc resolution =
  match reloc with
  | Asm.Rel32 (site, sym) ->
      if resolution = undefined then
        fail "%s: undefined function %s" o.Objfile.sym sym;
      let target = if resolution >= 0 then resolution else user (-resolution - 2) in
      (* rel32 is relative to the end of the 4-byte field. *)
      Bytes.set_int32_le text (base + site)
        (Int32.of_int (target - (base + site + 4)))
  | Asm.Abs32 (site, sym) ->
      if resolution = undefined then
        fail "%s: undefined global %s" o.Objfile.sym sym;
      Bytes.set_int32_le text (base + site) (Int32.of_int resolution)

let same_sym a b = a == b || String.equal a b

(* What every link of one program shares, whatever its variant: the
   user symbols, what each relocation resolves to, and the data layout
   of the globals.  A variant moves code, never symbols, so a link finds
   the plan its prefix keeps for these objects and globals and only
   places the code and patches the relocations. *)
type plan = {
  syms : string array;  (** the user objects' symbols, in order *)
  reloc_syms : string array array;  (** each object's relocation symbols *)
  reloc_abs : bool array array;  (** and whether each is an [Abs32] *)
  resolutions : int array array;  (** aligned with [reloc_syms] *)
  cross_resolutions : int list;  (** aligned with the prefix's [cross] *)
  entry : target option;
  globals_of : Ir.global list;  (** the program's globals (by identity) *)
  global_addrs : (string * int32) list;
  data_init : (int32 * int32 array) list;
}

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
  mutable plans : plan list;  (** most recent first, at most [max_plans] *)
}

let max_plans = 32

let lay_out_prefix runtime =
  let offsets = Hashtbl.create 32 in
  let size =
    List.fold_left
      (fun off (o : Objfile.func_obj) ->
        if Hashtbl.mem offsets o.Objfile.sym then
          fail "duplicate symbol %s" o.Objfile.sym;
        Hashtbl.replace offsets o.Objfile.sym off;
        off + Objfile.code_size o)
      0 runtime
  in
  let code = Bytes.create size in
  let placed =
    List.map
      (fun (o : Objfile.func_obj) -> (o, Hashtbl.find offsets o.Objfile.sym))
      runtime
  in
  let func sym = Option.map (fun off -> Runtime off) (Hashtbl.find_opt offsets sym) in
  let global sym = if sym = Libc.argv_symbol then Some argv_addr else None in
  let user _ = assert false in
  let cross =
    List.concat_map
      (fun ((o : Objfile.func_obj), base) ->
        copy_code code base o;
        List.filter_map
          (fun r ->
            let res = resolve ~func ~global r in
            if res = undefined then Some (o, base, r)
            else begin
              apply code ~user o base r res;
              None
            end)
          o.Objfile.relocs)
      placed
  in
  {
    runtime;
    code = Bytes.unsafe_to_string code;
    offsets;
    symbols = List.map (fun ((o : Objfile.func_obj), base) -> (o.Objfile.sym, base)) placed;
    blocks = List.map (fun (o, base) -> blocks_at o base) placed;
    cross;
    plans = [];
  }

(* The plan for [objects] and [globals]: a user symbol already in the
   runtime or defined twice is a duplicate, checked in object order. *)
let make_plan prefix ~objects ~globals =
  let funcs = Hashtbl.create 64 in
  Hashtbl.iter (fun sym off -> Hashtbl.replace funcs sym (Runtime off)) prefix.offsets;
  List.iteri
    (fun i (o : Objfile.func_obj) ->
      let sym = o.Objfile.sym in
      if Hashtbl.mem funcs sym then fail "duplicate symbol %s" sym;
      Hashtbl.replace funcs sym (User i))
    objects;
  let global_addrs, data_init = layout_globals globals in
  let resolve = resolve ~func:(Hashtbl.find_opt funcs) ~global:(fun sym -> List.assoc_opt sym global_addrs) in
  let per_reloc f =
    Array.of_list
      (List.map
         (fun (o : Objfile.func_obj) -> Array.of_list (List.map f o.Objfile.relocs))
         objects)
  in
  {
    syms = Array.of_list (List.map (fun (o : Objfile.func_obj) -> o.Objfile.sym) objects);
    reloc_syms = per_reloc (function Asm.Rel32 (_, s) | Asm.Abs32 (_, s) -> s);
    reloc_abs = per_reloc (function Asm.Rel32 _ -> false | Asm.Abs32 _ -> true);
    resolutions = per_reloc resolve;
    cross_resolutions = List.map (fun (_, _, r) -> resolve r) prefix.cross;
    entry = Hashtbl.find_opt funcs Libc.start_symbol;
    globals_of = globals;
    global_addrs;
    data_init;
  }

(* A plan fits a link whose objects define the same symbols with the
   same relocations (kind and symbol, in order), over the same globals.
   A variant's relocation symbols are its base's strings, so the
   comparison is mostly physical. *)
let fits p ~objects ~globals =
  let n = Array.length p.syms in
  let rec same_relocs syms abs k = function
    | [] -> k = Array.length syms
    | r :: rest ->
        k < Array.length syms
        && (match r with
           | Asm.Rel32 (_, s) -> (not abs.(k)) && same_sym syms.(k) s
           | Asm.Abs32 (_, s) -> abs.(k) && same_sym syms.(k) s)
        && same_relocs syms abs (k + 1) rest
  in
  let rec same i = function
    | [] -> i = n
    | (o : Objfile.func_obj) :: rest ->
        i < n
        && same_sym p.syms.(i) o.Objfile.sym
        && same_relocs p.reloc_syms.(i) p.reloc_abs.(i) 0 o.Objfile.relocs
        && same (i + 1) rest
  in
  p.globals_of == globals && same 0 objects

let plan_for prefix ~objects ~globals =
  match List.find_opt (fits ~objects ~globals) prefix.plans with
  | Some p -> p
  | None ->
      let p = make_plan prefix ~objects ~globals in
      prefix.plans <- p :: List.filteri (fun i _ -> i < max_plans - 1) prefix.plans;
      p

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
  let plan = plan_for prefix ~objects ~globals in
  let user_start = String.length prefix.code in
  let bases = Array.make (Array.length plan.syms) 0 in
  let size =
    List.fold_left
      (fun (i, off) o ->
        bases.(i) <- off;
        (i + 1, off + Objfile.code_size o))
      (0, user_start) objects
    |> snd
  in
  let text = Bytes.create size in
  Bytes.blit_string prefix.code 0 text 0 user_start;
  let user i = bases.(i) in
  List.iter2
    (fun (o, base, r) res -> apply text ~user o base r res)
    prefix.cross plan.cross_resolutions;
  List.iteri
    (fun i (o : Objfile.func_obj) ->
      let base = bases.(i) and resolutions = plan.resolutions.(i) in
      copy_code text base o;
      List.iteri (fun k r -> apply text ~user o base r resolutions.(k)) o.Objfile.relocs)
    objects;
  let entry =
    match plan.entry with
    | Some (User i) -> bases.(i)
    | Some (Runtime off) -> off
    | None -> fail "entry stub missing from runtime objects"
  in
  {
    text = Bytes.unsafe_to_string text;
    text_base;
    symbols =
      prefix.symbols
      @ List.mapi (fun i (o : Objfile.func_obj) -> (o.Objfile.sym, bases.(i))) objects;
    entry;
    user_start;
    block_offsets =
      prefix.blocks @ List.mapi (fun i o -> blocks_at o bases.(i)) objects;
    globals = plan.global_addrs;
    data_init = plan.data_init;
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
