type ins = { insn : Insn.t; code : string }

type item =
  | Label of Ir.label
  | Ins of ins
  | Jmp_sym of Ir.label
  | Jcc_sym of Cond.t * Ir.label
  | Call_sym of string
  | Mov_sym of Reg.t * string

let ins insn = Ins { insn; code = Encode.insn insn }

type reloc = Rel32 of int * string | Abs32 of int * string

type assembled = {
  bytes : string;
  relocs : reloc list;
  label_offsets : (Ir.label * int) list;
}

type layout = {
  code : string;
  reloc_sites : int array;
  reloc_syms : string array;
  reloc_abs : bool array;
  offsets : int array;
  block_starts : int array;
  labels : Ir.label array;
  label_at : int array;
  branch_sites : int array;
  branch_targets : int array;
}

type body = { items : item list; mutable layout : layout option }
(* Insertion [i] puts [what.(i)] right before instruction [at.(i)]. *)
type func = { name : string; body : body; at : int array; what : item array }

let func name items =
  { name; body = { items; layout = None }; at = [||]; what = [||] }
let name f = f.name

let item_size = function
  | Label _ -> 0
  | Ins i -> String.length i.code
  | Jmp_sym _ -> 5 (* E9 rel32 *)
  | Jcc_sym _ -> 6 (* 0F 8x rel32 *)
  | Call_sym _ -> 5 (* E8 rel32 *)
  | Mov_sym _ -> 5 (* B8+r imm32 *)

(* The symbolic items' bytes with a zero displacement or immediate,
   encoded once: the layout copies them and patches the field. *)
let jmp_code = Encode.insn (Insn.Jmp_rel 0l)
let call_code = Encode.insn (Insn.Call_rel 0l)

let jcc_code =
  Array.init 16 (fun n -> Encode.insn (Insn.Jcc (Cond.decode n, 0l)))

let mov_code =
  Array.init 8 (fun n -> Encode.insn (Insn.Mov_r_imm (Reg.decode n, 0l)))

(* Block offsets by label, without the generic table's polymorphic hash
   and compare. *)
module Offsets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l land max_int
end)

(* Item bytes are a few bytes long: a byte loop beats a [memmove] call. *)
let copy bytes here code =
  for k = 0 to String.length code - 1 do
    Bytes.unsafe_set bytes (here + k) (String.unsafe_get code k)
  done

(* A rel32 field, little-endian, from primitives alone: nothing here is
   a call or boxes an [int32]. *)
let set_rel32 bytes at v =
  Bytes.unsafe_set bytes at (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set bytes (at + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set bytes (at + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set bytes (at + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(* One walk sizes the items and counts the arrays; a second copies each
   item's bytes into place and fills them.  Local branches are written
   with a zero rel32 and back-patched at the end, when every label is
   known (the last definition of a label wins); a displacement is
   relative to the end of its branch, which is 4 bytes past the rel32
   field. *)
let lay_out name items =
  let rec count size n labels branches relocs = function
    | [] -> (size, n, labels, branches, relocs)
    | Label _ :: rest -> count size n (labels + 1) branches relocs rest
    | ((Jmp_sym _ | Jcc_sym _) as item) :: rest ->
        count (size + item_size item) (n + 1) labels (branches + 1) relocs rest
    | ((Call_sym _ | Mov_sym _) as item) :: rest ->
        count (size + item_size item) (n + 1) labels branches (relocs + 1) rest
    | item :: rest ->
        count (size + item_size item) (n + 1) labels branches relocs rest
  in
  let size, n, nlabels, nbranches, nrelocs = count 0 0 0 0 0 items in
  let bytes = Bytes.create size in
  let offsets = Array.make (n + 1) size in
  let block_starts = Array.make (nlabels + 2) n in
  block_starts.(0) <- 0;
  let labels = Array.make nlabels 0 and label_at = Array.make nlabels 0 in
  let branch_sites = Array.make nbranches 0 in
  let branch_labels = Array.make nbranches 0 in
  let reloc_sites = Array.make nrelocs 0 and reloc_syms = Array.make nrelocs "" in
  let reloc_abs = Array.make nrelocs false in
  let by_label = Offsets.create 16 in
  let here = ref 0 and j = ref 0 and b = ref 0 and k = ref 0 and r = ref 0 in
  let place code =
    offsets.(!j) <- !here;
    copy bytes !here code;
    here := !here + String.length code;
    incr j
  in
  let branch field l =
    branch_sites.(!k) <- !here + field;
    branch_labels.(!k) <- l;
    incr k
  in
  let reloc abs sym =
    reloc_sites.(!r) <- !here + 1;
    reloc_syms.(!r) <- sym;
    reloc_abs.(!r) <- abs;
    incr r
  in
  List.iter
    (function
      | Label l ->
          Offsets.replace by_label l !b;
          labels.(!b) <- l;
          label_at.(!b) <- !here;
          block_starts.(!b + 1) <- !j;
          incr b
      | Ins i -> place i.code
      | Jmp_sym l ->
          branch 1 l;
          place jmp_code
      | Jcc_sym (c, l) ->
          branch 2 l;
          place jcc_code.(Cond.encode c)
      | Call_sym sym ->
          reloc false sym;
          place call_code
      | Mov_sym (reg, sym) ->
          reloc true sym;
          place mov_code.(Reg.encode reg))
    items;
  let branch_targets =
    Array.map
      (fun l ->
        match Offsets.find_opt by_label l with
        | Some target -> target
        | None ->
            failwith
              (Printf.sprintf "Asm.assemble: unknown label L%d in %s" l name))
      branch_labels
  in
  Array.iteri
    (fun k site ->
      set_rel32 bytes site (label_at.(branch_targets.(k)) - (site + 4)))
    branch_sites;
  {
    code = Bytes.unsafe_to_string bytes;
    reloc_sites;
    reloc_syms;
    reloc_abs;
    offsets;
    block_starts;
    labels;
    label_at;
    branch_sites;
    branch_targets;
  }

let body_layout name body =
  match body.layout with
  | Some l -> l
  | None ->
      let l = lay_out name body.items in
      body.layout <- Some l;
      l

(* The items with the insertions spliced in: an insertion at [j] goes
   right before instruction [j], after any label that precedes it. *)
let items f =
  let m = Array.length f.at in
  if m = 0 then f.body.items
  else
    let rec walk j k acc = function
      | [] -> List.rev acc
      | (Label _ as item) :: rest -> walk j k (item :: acc) rest
      | item :: rest as all ->
          if k < m && f.at.(k) = j then walk j (k + 1) (f.what.(k) :: acc) all
          else walk (j + 1) k (item :: acc) rest
    in
    walk 0 0 [] f.body.items

(* A function with insertions is read as the function of its items. *)
let base f =
  if Array.length f.at = 0 then f.body
  else { items = items f; layout = None }

let layout f = body_layout f.name (base f)

let insert f at what =
  let body = base f in
  let n = Array.length (body_layout f.name body).offsets - 1 in
  if Array.length at <> Array.length what then
    invalid_arg "Asm.insert: positions and items differ in length";
  let last = ref 0 in
  for k = 0 to Array.length at - 1 do
    let j = at.(k) in
    if j < !last || j >= n then
      invalid_arg
        (Printf.sprintf "Asm.insert: %s: position %d out of order or range"
           f.name j);
    last := j;
    match what.(k) with
    | Ins _ -> ()
    | _ -> invalid_arg "Asm.insert: only concrete instructions are inserted"
  done;
  { name = f.name; body; at; what }

let func_size f =
  Array.fold_left
    (fun n item -> n + item_size item)
    (String.length (body_layout f.name f.body).code)
    f.what

(* The base bytes between insertion points, each insertion's bytes, and
   the positions the insertions moved.  [pos.(i)] is insertion [i]'s
   base offset and [cum.(i)] the bytes inserted before it, so the bytes
   inserted before base offset [x] are [cum.(c)] for the count [c] of
   insertions below [x].  An insertion at an instruction goes after the
   labels at that offset, and no instruction is empty, so this one count
   gives a label's shift and the shift of a relocation or rel32 field
   inside an instruction alike.  Labels, branch sites and relocation
   sites are each in ascending order, so each pass walks them from the
   last, with one cursor over the insertions, and builds its list from
   the end. *)
let splice l at what =
  let m = Array.length at in
  let pos = Array.make m 0 and cum = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    pos.(i) <- l.offsets.(at.(i));
    cum.(i + 1) <- cum.(i) + item_size what.(i)
  done;
  (* Without insertions nothing moves: the bytes are the layout's. *)
  let size = if m = 0 then 0 else String.length l.code in
  let bytes = Bytes.create (size + cum.(m)) in
  let src = ref 0 in
  for i = 0 to m - 1 do
    let p = pos.(i) in
    Bytes.unsafe_blit_string l.code !src bytes (!src + cum.(i)) (p - !src);
    (match what.(i) with
    | Ins ins -> copy bytes (p + cum.(i)) ins.code
    | _ -> assert false);
    src := p
  done;
  Bytes.unsafe_blit_string l.code !src bytes (!src + cum.(m)) (size - !src);
  let c = ref m in
  let shift x =
    while !c > 0 && pos.(!c - 1) >= x do
      decr c
    done;
    cum.(!c)
  in
  let nlabels = Array.length l.labels in
  let label_shift = Array.make nlabels 0 in
  let label_offsets = ref [] in
  for k = nlabels - 1 downto 0 do
    let x = l.label_at.(k) in
    let d = shift x in
    label_shift.(k) <- d;
    label_offsets := (l.labels.(k), x + d) :: !label_offsets
  done;
  c := m;
  for k = Array.length l.branch_sites - 1 downto 0 do
    let site = l.branch_sites.(k) and target = l.branch_targets.(k) in
    let ds = shift site and dt = label_shift.(target) in
    if ds <> dt then
      set_rel32 bytes (site + ds) (l.label_at.(target) + dt - (site + ds + 4))
  done;
  c := m;
  let relocs = ref [] in
  for k = Array.length l.reloc_sites - 1 downto 0 do
    let site = l.reloc_sites.(k) in
    let site = site + shift site and sym = l.reloc_syms.(k) in
    relocs :=
      (if l.reloc_abs.(k) then Abs32 (site, sym) else Rel32 (site, sym))
      :: !relocs
  done;
  {
    bytes = (if m = 0 then l.code else Bytes.unsafe_to_string bytes);
    relocs = !relocs;
    label_offsets = !label_offsets;
  }

let assemble f = splice (body_layout f.name f.body) f.at f.what

let insns f =
  List.filter_map (function Ins i -> Some i.insn | _ -> None) (items f)

let pp ppf f =
  Format.fprintf ppf "%s:@." f.name;
  List.iter
    (fun item ->
      match item with
      | Label l -> Format.fprintf ppf "L%d:@." l
      | Ins i -> Format.fprintf ppf "  %a@." Insn.pp i.insn
      | Jmp_sym l -> Format.fprintf ppf "  jmp L%d@." l
      | Jcc_sym (c, l) -> Format.fprintf ppf "  j%s L%d@." (Cond.name c) l
      | Call_sym s -> Format.fprintf ppf "  call %s@." s
      | Mov_sym (r, s) -> Format.fprintf ppf "  mov $%s, %%%s@." s (Reg.name r))
    (items f)
