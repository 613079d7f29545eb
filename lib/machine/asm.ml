type ins = { insn : Insn.t; code : string }

type item =
  | Label of Ir.label
  | Ins of ins
  | Jmp_sym of Ir.label
  | Jcc_sym of Cond.t * Ir.label
  | Call_sym of string
  | Mov_sym of Reg.t * string

let ins insn = Ins { insn; code = Encode.insn insn }

type func = { name : string; items : item list }

type reloc = Rel32 of int * string | Abs32 of int * string

type assembled = {
  bytes : string;
  relocs : reloc list;
  label_offsets : (Ir.label * int) list;
}

let item_size = function
  | Label _ -> 0
  | Ins i -> String.length i.code
  | Jmp_sym _ -> 5 (* E9 rel32 *)
  | Jcc_sym _ -> 6 (* 0F 8x rel32 *)
  | Call_sym _ -> 5 (* E8 rel32 *)
  | Mov_sym _ -> 5 (* B8+r imm32 *)

let func_size f =
  let rec sum acc = function
    | [] -> acc
    | i :: rest -> sum (acc + item_size i) rest
  in
  sum 0 f.items

(* The symbolic items' bytes with a zero displacement or immediate,
   encoded once: [assemble] copies them and patches the field. *)
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

(* Sized first, then one pass: each item's bytes are copied into place
   and label offsets are recorded as the walk reaches them.  Local branches are written
   with a zero rel32 and back-patched at the end, when every label is
   known; a displacement is relative to the end of its branch, which is
   4 bytes past the rel32 field. *)
let assemble f =
  let bytes = Bytes.create (func_size f) in
  let offsets = Offsets.create 16 in
  let labels_in_order = ref [] in
  let branches = ref [] in
  let relocs = ref [] in
  let rec walk here = function
    | [] -> ()
    | Label l :: rest ->
        Offsets.add offsets l here;
        labels_in_order := (l, here) :: !labels_in_order;
        walk here rest
    | Ins i :: rest ->
        copy bytes here i.code;
        walk (here + String.length i.code) rest
    | Jmp_sym l :: rest ->
        branches := (here + 1, l) :: !branches;
        copy bytes here jmp_code;
        walk (here + 5) rest
    | Jcc_sym (c, l) :: rest ->
        branches := (here + 2, l) :: !branches;
        copy bytes here jcc_code.(Cond.encode c);
        walk (here + 6) rest
    | Call_sym sym :: rest ->
        relocs := Rel32 (here + 1, sym) :: !relocs;
        copy bytes here call_code;
        walk (here + 5) rest
    | Mov_sym (r, sym) :: rest ->
        relocs := Abs32 (here + 1, sym) :: !relocs;
        copy bytes here mov_code.(Reg.encode r);
        walk (here + 5) rest
  in
  walk 0 f.items;
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
  List.filter_map (function Ins i -> Some i.insn | _ -> None) f.items

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
    f.items
