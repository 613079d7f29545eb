type item =
  | Label of Ir.label
  | Ins of Insn.t
  | Jmp_sym of Ir.label
  | Jcc_sym of Cond.t * Ir.label
  | Call_sym of string
  | Mov_sym of Reg.t * string

type func = { name : string; items : item list }

type reloc = Rel32 of int * string | Abs32 of int * string

type assembled = {
  bytes : string;
  relocs : reloc list;
  label_offsets : (Ir.label * int) list;
}

let item_size = function
  | Label _ -> 0
  | Ins i -> Encode.length i
  | Jmp_sym _ -> 5 (* E9 rel32 *)
  | Jcc_sym _ -> 6 (* 0F 8x rel32 *)
  | Call_sym _ -> 5 (* E8 rel32 *)
  | Mov_sym _ -> 5 (* B8+r imm32 *)

let func_size f = List.fold_left (fun acc i -> acc + item_size i) 0 f.items

(* Block offsets by label, without the generic table's polymorphic hash
   and compare. *)
module Offsets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l land max_int
end)

(* One pass: each item is encoded once, straight into the buffer, and
   label offsets are recorded as the walk reaches them.  Local branches
   are written with a zero rel32 and back-patched at the end, when every
   label is known; a displacement is relative to the end of its branch,
   which is 4 bytes past the rel32 field. *)
let assemble f =
  let buf = Buffer.create 256 in
  let offsets = Offsets.create 16 in
  let labels_in_order = ref [] in
  let branches = ref [] in
  let relocs = ref [] in
  List.iter
    (fun item ->
      let here = Buffer.length buf in
      match item with
      | Label l ->
          Offsets.replace offsets l here;
          labels_in_order := (l, here) :: !labels_in_order
      | Ins i -> Encode.insn_into buf i
      | Jmp_sym l ->
          branches := (here + 1, l) :: !branches;
          Encode.insn_into buf (Insn.Jmp_rel 0l)
      | Jcc_sym (c, l) ->
          branches := (here + 2, l) :: !branches;
          Encode.insn_into buf (Insn.Jcc (c, 0l))
      | Call_sym sym ->
          relocs := Rel32 (here + 1, sym) :: !relocs;
          Encode.insn_into buf (Insn.Call_rel 0l)
      | Mov_sym (r, sym) ->
          relocs := Abs32 (here + 1, sym) :: !relocs;
          Encode.insn_into buf (Insn.Mov_r_imm (r, 0l)))
    f.items;
  let bytes = Buffer.to_bytes buf in
  List.iter
    (fun (site, l) ->
      match Offsets.find_opt offsets l with
      | Some target ->
          Bytes.set_int32_le bytes site (Int32.of_int (target - (site + 4)))
      | None ->
          failwith
            (Printf.sprintf "Asm.assemble: unknown label L%d in %s" l f.name))
    (List.rev !branches);
  {
    bytes = Bytes.unsafe_to_string bytes;
    relocs = List.rev !relocs;
    label_offsets = List.rev !labels_in_order;
  }

let insns f =
  List.filter_map (function Ins i -> Some i | _ -> None) f.items

let pp ppf f =
  Format.fprintf ppf "%s:@." f.name;
  List.iter
    (fun item ->
      match item with
      | Label l -> Format.fprintf ppf "L%d:@." l
      | Ins i -> Format.fprintf ppf "  %a@." Insn.pp i
      | Jmp_sym l -> Format.fprintf ppf "  jmp L%d@." l
      | Jcc_sym (c, l) -> Format.fprintf ppf "  j%s L%d@." (Cond.name c) l
      | Call_sym s -> Format.fprintf ppf "  call %s@." s
      | Mov_sym (r, s) -> Format.fprintf ppf "  mov $%s, %%%s@." s (Reg.name r))
    f.items
