type reg = Virt of int | Phys of Reg.t [@@deriving eq, ord, show]
type mop = R of reg | I of int32 [@@deriving eq, ord, show]

type addr = Areg of reg | Aslot of int | Aparam of int
[@@deriving eq, ord, show]

type alu = Aadd | Asub | Aand | Aor | Axor [@@deriving eq, ord, show]
type shift = Sshl | Sshr | Ssar [@@deriving eq, ord, show]

type minsn =
  | Mov of reg * mop
  | Load of reg * addr
  | Store of addr * mop
  | Alu of alu * reg * mop
  | Imul of reg * mop
  | Neg of reg
  | Not of reg
  | Shift of shift * reg * mop
  | Div of { dst : reg; dividend : mop; divisor : mop; want_rem : bool }
  | Set of Ir.relop * reg * mop * mop
  | Lea_slot of reg * int
  | Lea_global of reg * string
  | Call of { dst : reg option; callee : string; args : mop list }
[@@deriving eq, ord, show]

type mterm =
  | Tret of mop option
  | Tjmp of Ir.label
  | Tjcc of Ir.relop * mop * mop * Ir.label * Ir.label
[@@deriving eq, ord, show]

type block = {
  label : Ir.label;
  mutable insns : minsn list;
  mutable term : mterm;
}

type func = {
  name : string;
  n_params : int;
  mutable blocks : block list;
  slots : Ir.slot list;
  mutable next_virt : int;
}

let mop_regs = function R r -> [ r ] | I _ -> []
let addr_regs = function Areg r -> [ r ] | Aslot _ | Aparam _ -> []

let defs = function
  | Mov (d, _)
  | Load (d, _)
  | Alu (_, d, _)
  | Imul (d, _)
  | Neg d
  | Not d
  | Shift (_, d, _)
  | Div { dst = d; _ }
  | Set (_, d, _, _)
  | Lea_slot (d, _)
  | Lea_global (d, _) ->
      [ d ]
  | Store _ -> []
  | Call { dst; _ } -> Option.to_list dst

let uses = function
  | Mov (_, s) -> mop_regs s
  | Load (_, a) -> addr_regs a
  | Store (a, s) -> addr_regs a @ mop_regs s
  (* Two-address forms read their destination too. *)
  | Alu (_, d, s) | Imul (d, s) | Shift (_, d, s) -> d :: mop_regs s
  | Neg d | Not d -> [ d ]
  | Div { dividend; divisor; _ } -> mop_regs dividend @ mop_regs divisor
  | Set (_, _, a, b) -> mop_regs a @ mop_regs b
  | Lea_slot _ | Lea_global _ -> []
  | Call { args; _ } -> List.concat_map mop_regs args

let term_uses = function
  | Tret (Some op) -> mop_regs op
  | Tret None -> []
  | Tjmp _ -> []
  | Tjcc (_, a, b, _, _) -> mop_regs a @ mop_regs b

let successors = function
  | Tret _ -> []
  | Tjmp l -> [ l ]
  | Tjcc (_, _, _, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]

let pp_reg ppf = function
  | Virt v -> Format.fprintf ppf "v%d" v
  | Phys r -> Format.fprintf ppf "%%%s" (Reg.name r)

let pp_mop ppf = function
  | R r -> pp_reg ppf r
  | I i -> Format.fprintf ppf "$%ld" i

let pp_addr ppf = function
  | Areg r -> Format.fprintf ppf "[%a]" pp_reg r
  | Aslot s -> Format.fprintf ppf "[slot%d]" s
  | Aparam i -> Format.fprintf ppf "[param%d]" i

let alu_name = function
  | Aadd -> "add"
  | Asub -> "sub"
  | Aand -> "and"
  | Aor -> "or"
  | Axor -> "xor"

let shift_name = function Sshl -> "shl" | Sshr -> "shr" | Ssar -> "sar"

let pp_minsn ppf i =
  let p fmt = Format.fprintf ppf fmt in
  match i with
  | Mov (d, s) -> p "mov %a, %a" pp_reg d pp_mop s
  | Load (d, a) -> p "load %a, %a" pp_reg d pp_addr a
  | Store (a, s) -> p "store %a, %a" pp_addr a pp_mop s
  | Alu (op, d, s) -> p "%s %a, %a" (alu_name op) pp_reg d pp_mop s
  | Imul (d, s) -> p "imul %a, %a" pp_reg d pp_mop s
  | Neg d -> p "neg %a" pp_reg d
  | Not d -> p "not %a" pp_reg d
  | Shift (sh, d, s) -> p "%s %a, %a" (shift_name sh) pp_reg d pp_mop s
  | Div { dst; dividend; divisor; want_rem } ->
      p "%s %a, %a, %a"
        (if want_rem then "rem" else "div")
        pp_reg dst pp_mop dividend pp_mop divisor
  | Set (rel, d, a, b) ->
      p "set.%s %a, %a, %a" (Ir.relop_name rel) pp_reg d pp_mop a pp_mop b
  | Lea_slot (d, s) -> p "lea %a, slot%d" pp_reg d s
  | Lea_global (d, g) -> p "lea %a, &%s" pp_reg d g
  | Call { dst; callee; args } ->
      (match dst with Some d -> p "%a <- " pp_reg d | None -> ());
      p "call %s(%a)" callee
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_mop)
        args

let pp_mterm ppf t =
  let p fmt = Format.fprintf ppf fmt in
  match t with
  | Tret None -> p "ret"
  | Tret (Some op) -> p "ret %a" pp_mop op
  | Tjmp l -> p "jmp L%d" l
  | Tjcc (rel, a, b, l1, l2) ->
      p "j.%s %a, %a ? L%d : L%d" (Ir.relop_name rel) pp_mop a pp_mop b l1 l2
