let mop_of_operand : Ir.operand -> Mir.mop = function
  | Ir.Temp t -> Mir.R (Mir.Virt t)
  | Ir.Const c -> Mir.I c

let alu_of_binop : Ir.binop -> Mir.alu option = function
  | Ir.Add -> Some Mir.Aadd
  | Ir.Sub -> Some Mir.Asub
  | Ir.And -> Some Mir.Aand
  | Ir.Or -> Some Mir.Aor
  | Ir.Xor -> Some Mir.Axor
  | _ -> None

let shift_of_binop : Ir.binop -> Mir.shift option = function
  | Ir.Shl -> Some Mir.Sshl
  | Ir.Shr -> Some Mir.Sshr
  | Ir.Sar -> Some Mir.Ssar
  | _ -> None

type ctx = { mutable next_virt : int }

let fresh ctx =
  let v = ctx.next_virt in
  ctx.next_virt <- v + 1;
  Mir.Virt v

(* Lower [dst := a op b] for two-address ALU-style ops.  The destination
   is initialized from [a] first, so when [b] names the same virtual
   register as [dst] we must go through a scratch virtual register. *)
let two_address ctx ~dst ~a ~b ~(mk : Mir.reg -> Mir.mop -> Mir.minsn) =
  let d = Mir.Virt dst in
  let b_mop = mop_of_operand b in
  let conflict =
    match b with Ir.Temp t -> t = dst | Ir.Const _ -> false
  in
  if conflict then begin
    let tmp = fresh ctx in
    [ Mir.Mov (tmp, mop_of_operand a); mk tmp b_mop; Mir.Mov (d, Mir.R tmp) ]
  end
  else [ Mir.Mov (d, mop_of_operand a); mk d b_mop ]

let instr ctx (i : Ir.instr) : Mir.minsn list =
  match i with
  | Ir.Bin (op, dst, a, b) -> (
      match (alu_of_binop op, shift_of_binop op) with
      | Some alu, _ ->
          two_address ctx ~dst ~a ~b ~mk:(fun d s -> Mir.Alu (alu, d, s))
      | None, Some sh ->
          two_address ctx ~dst ~a ~b ~mk:(fun d s -> Mir.Shift (sh, d, s))
      | None, None -> (
          match op with
          | Ir.Mul ->
              two_address ctx ~dst ~a ~b ~mk:(fun d s -> Mir.Imul (d, s))
          | Ir.Div | Ir.Rem ->
              [
                Mir.Div
                  {
                    dst = Mir.Virt dst;
                    dividend = mop_of_operand a;
                    divisor = mop_of_operand b;
                    want_rem = (op = Ir.Rem);
                  };
              ]
          | _ -> assert false))
  | Ir.Neg (dst, a) -> [ Mir.Mov (Mir.Virt dst, mop_of_operand a); Mir.Neg (Mir.Virt dst) ]
  | Ir.Not (dst, a) -> [ Mir.Mov (Mir.Virt dst, mop_of_operand a); Mir.Not (Mir.Virt dst) ]
  | Ir.Cmp (rel, dst, a, b) ->
      [ Mir.Set (rel, Mir.Virt dst, mop_of_operand a, mop_of_operand b) ]
  | Ir.Copy (dst, a) -> [ Mir.Mov (Mir.Virt dst, mop_of_operand a) ]
  | Ir.Load (dst, addr) -> (
      match addr with
      | Ir.Temp t -> [ Mir.Load (Mir.Virt dst, Mir.Areg (Mir.Virt t)) ]
      | Ir.Const c ->
          let tmp = fresh ctx in
          [ Mir.Mov (tmp, Mir.I c); Mir.Load (Mir.Virt dst, Mir.Areg tmp) ])
  | Ir.Store (addr, v) -> (
      match addr with
      | Ir.Temp t -> [ Mir.Store (Mir.Areg (Mir.Virt t), mop_of_operand v) ]
      | Ir.Const c ->
          let tmp = fresh ctx in
          [ Mir.Mov (tmp, Mir.I c); Mir.Store (Mir.Areg tmp, mop_of_operand v) ])
  | Ir.Global_addr (dst, g) -> [ Mir.Lea_global (Mir.Virt dst, g) ]
  | Ir.Stack_addr (dst, s) -> [ Mir.Lea_slot (Mir.Virt dst, s) ]
  | Ir.Call (dst, callee, args) ->
      [
        Mir.Call
          {
            dst = Option.map (fun t -> Mir.Virt t) dst;
            callee;
            args = List.map mop_of_operand args;
          };
      ]

let term (t : Ir.terminator) : Mir.mterm =
  match t with
  | Ir.Ret v -> Mir.Tret (Option.map mop_of_operand v)
  | Ir.Jmp l -> Mir.Tjmp l
  | Ir.Cbr (rel, a, b, l1, l2) ->
      Mir.Tjcc (rel, mop_of_operand a, mop_of_operand b, l1, l2)
  | Ir.Cbr_nz (a, l1, l2) -> Mir.Tjcc (Ir.Ne, mop_of_operand a, Mir.I 0l, l1, l2)

let func (f : Ir.func) : Mir.func =
  let ctx = { next_virt = f.next_temp } in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        {
          Mir.label = b.label;
          insns = List.concat_map (instr ctx) b.instrs;
          term = term b.term;
        })
      f.blocks
  in
  (* Parameters materialize at the top of the entry block. *)
  let param_loads =
    List.mapi (fun i t -> Mir.Load (Mir.Virt t, Mir.Aparam i)) f.params
  in
  (match blocks with
  | entry :: _ -> entry.Mir.insns <- param_loads @ entry.Mir.insns
  | [] -> ());
  {
    Mir.name = f.name;
    n_params = List.length f.params;
    blocks;
    slots = f.slots;
    next_virt = ctx.next_virt;
  }
