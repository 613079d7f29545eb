type temp = int [@@deriving eq, ord, show]
type label = int [@@deriving eq, ord, show]
type operand = Temp of temp | Const of int32 [@@deriving eq, ord, show]

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar
[@@deriving eq, ord, show]

type relop = Eq | Ne | Lt | Le | Gt | Ge [@@deriving eq, ord, show]

type instr =
  | Bin of binop * temp * operand * operand
  | Neg of temp * operand
  | Not of temp * operand
  | Cmp of relop * temp * operand * operand
  | Copy of temp * operand
  | Load of temp * operand
  | Store of operand * operand
  | Global_addr of temp * string
  | Stack_addr of temp * int
  | Call of temp option * string * operand list
[@@deriving eq, ord, show]

type terminator =
  | Ret of operand option
  | Jmp of label
  | Cbr of relop * operand * operand * label * label
  | Cbr_nz of operand * label * label
[@@deriving eq, ord, show]

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
}

type slot = { slot_id : int; size_words : int }

type func = {
  name : string;
  params : temp list;
  mutable blocks : block list;
  mutable slots : slot list;
  mutable next_temp : int;
  mutable next_label : int;
}

type global = { gname : string; size_words : int; init : int32 array option }
type modul = { funcs : func list; globals : global list }

let def_temp = function
  | Bin (_, t, _, _)
  | Neg (t, _)
  | Not (t, _)
  | Cmp (_, t, _, _)
  | Copy (t, _)
  | Load (t, _)
  | Global_addr (t, _)
  | Stack_addr (t, _) ->
      Some t
  | Store _ -> None
  | Call (dst, _, _) -> dst

let instr_uses = function
  | Bin (_, _, a, b) | Cmp (_, _, a, b) | Store (a, b) -> [ a; b ]
  | Neg (_, a) | Not (_, a) | Copy (_, a) | Load (_, a) -> [ a ]
  | Global_addr _ | Stack_addr _ -> []
  | Call (_, _, args) -> args

let term_uses = function
  | Ret (Some a) -> [ a ]
  | Ret None | Jmp _ -> []
  | Cbr (_, a, b, _, _) -> [ a; b ]
  | Cbr_nz (a, _, _) -> [ a ]

let has_side_effect = function
  | Store _ | Call _ -> true
  | Bin _ | Neg _ | Not _ | Cmp _ | Copy _ | Load _ | Global_addr _
  | Stack_addr _ ->
      false

let successors = function
  | Ret _ -> []
  | Jmp l -> [ l ]
  | Cbr (_, _, _, l1, l2) | Cbr_nz (_, l1, l2) -> [ l1; l2 ]

let map_term_labels f = function
  | Ret _ as t -> t
  | Jmp l -> Jmp (f l)
  | Cbr (r, a, b, l1, l2) -> Cbr (r, a, b, f l1, f l2)
  | Cbr_nz (a, l1, l2) -> Cbr_nz (a, f l1, f l2)

let find_block func label = List.find (fun b -> b.label = label) func.blocks
let find_func m name = List.find (fun f -> String.equal f.name name) m.funcs

let size f =
  List.fold_left (fun n b -> n + 1 + List.length b.instrs) 0 f.blocks

let eval_binop op a b =
  let open Int32 in
  match op with
  | Add -> Some (add a b)
  | Sub -> Some (sub a b)
  | Mul -> Some (mul a b)
  | Div ->
      if b = 0l || (a = min_int && b = -1l) then None else Some (div a b)
  | Rem ->
      if b = 0l || (a = min_int && b = -1l) then None else Some (rem a b)
  | And -> Some (logand a b)
  | Or -> Some (logor a b)
  | Xor -> Some (logxor a b)
  | Shl ->
      let n = to_int b in
      if n < 0 || n > 31 then None else Some (shift_left a n)
  | Shr ->
      let n = to_int b in
      if n < 0 || n > 31 then None else Some (shift_right_logical a n)
  | Sar ->
      let n = to_int b in
      if n < 0 || n > 31 then None else Some (shift_right a n)

let eval_relop rel a b =
  match rel with
  | Eq -> Int32.equal a b
  | Ne -> not (Int32.equal a b)
  | Lt -> Int32.compare a b < 0
  | Le -> Int32.compare a b <= 0
  | Gt -> Int32.compare a b > 0
  | Ge -> Int32.compare a b >= 0

(* -------------------------------------------------------------- *)
(* Printing *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"

let relop_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let pp_operand ppf = function
  | Temp t -> Format.fprintf ppf "t%d" t
  | Const c -> Format.fprintf ppf "%ld" c

let pp_instr ppf i =
  let p fmt = Format.fprintf ppf fmt in
  let o = pp_operand in
  match i with
  | Bin (op, t, a, b) -> p "t%d <- %s %a, %a" t (binop_name op) o a o b
  | Neg (t, a) -> p "t%d <- neg %a" t o a
  | Not (t, a) -> p "t%d <- not %a" t o a
  | Cmp (rel, t, a, b) -> p "t%d <- cmp.%s %a, %a" t (relop_name rel) o a o b
  | Copy (t, a) -> p "t%d <- %a" t o a
  | Load (t, a) -> p "t%d <- load [%a]" t o a
  | Store (a, v) -> p "store [%a] <- %a" o a o v
  | Global_addr (t, g) -> p "t%d <- &%s" t g
  | Stack_addr (t, s) -> p "t%d <- &slot%d" t s
  | Call (dst, f, args) ->
      (match dst with Some t -> p "t%d <- " t | None -> ());
      p "call %s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           o)
        args

let pp_term ppf t =
  let p fmt = Format.fprintf ppf fmt in
  let o = pp_operand in
  match t with
  | Ret None -> p "ret"
  | Ret (Some a) -> p "ret %a" o a
  | Jmp l -> p "jmp L%d" l
  | Cbr (rel, a, b, l1, l2) ->
      p "br.%s %a, %a ? L%d : L%d" (relop_name rel) o a o b l1 l2
  | Cbr_nz (a, l1, l2) -> p "br.nz %a ? L%d : L%d" o a l1 l2

let pp_func ppf f =
  Format.fprintf ppf "func %s(%a):@." f.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf t -> Format.fprintf ppf "t%d" t))
    f.params;
  List.iter
    (fun s -> Format.fprintf ppf "  slot%d[%d]@." s.slot_id s.size_words)
    f.slots;
  List.iter
    (fun b ->
      Format.fprintf ppf "L%d:@." b.label;
      List.iter (fun i -> Format.fprintf ppf "  %a@." pp_instr i) b.instrs;
      Format.fprintf ppf "  %a@." pp_term b.term)
    f.blocks
