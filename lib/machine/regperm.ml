open Insn

let map_mem p (m : Insn.mem) =
  {
    m with
    base = Option.map p m.base;
    index = Option.map (fun (r, s) -> (p r, s)) m.index;
  }

let map_op p = function Reg r -> Reg (p r) | Mem m -> Mem (map_mem p m)

let map_insn p (i : Insn.t) : Insn.t =
  match i with
  | Mov_rm_r (d, s) -> Mov_rm_r (map_op p d, p s)
  | Mov_r_rm (d, s) -> Mov_r_rm (p d, map_op p s)
  | Mov_r_imm (d, imm) -> Mov_r_imm (p d, imm)
  | Mov_rm_imm (d, imm) -> Mov_rm_imm (map_op p d, imm)
  | Alu_rm_r (op, d, s) -> Alu_rm_r (op, map_op p d, p s)
  | Alu_r_rm (op, d, s) -> Alu_r_rm (op, p d, map_op p s)
  | Alu_rm_imm (op, d, imm) -> Alu_rm_imm (op, map_op p d, imm)
  | Test_rm_r (d, s) -> Test_rm_r (map_op p d, p s)
  | Lea (d, m) -> Lea (p d, map_mem p m)
  | Inc_r r -> Inc_r (p r)
  | Dec_r r -> Dec_r (p r)
  | Neg o -> Neg (map_op p o)
  | Not o -> Not (map_op p o)
  | Imul_r_rm (d, s) -> Imul_r_rm (p d, map_op p s)
  | Mul o -> Mul (map_op p o)
  | Idiv o -> Idiv (map_op p o)
  | Shift_imm (sh, o, n) -> Shift_imm (sh, map_op p o, n)
  | Shift_cl (sh, o) -> Shift_cl (sh, map_op p o)
  | Push_r r -> Push_r (p r)
  | Pop_r r -> Pop_r (p r)
  | Call_rm o -> Call_rm (map_op p o)
  | Jmp_rm o -> Jmp_rm (map_op p o)
  | Xchg_rm_r (o, r) -> Xchg_rm_r (map_op p o, p r)
  | Movzx_r_r8 (d, s8) -> Movzx_r_r8 (p d, s8)
  | Cdq | Setcc _ | Push_imm _ | Ret | Ret_imm _ | Call_rel _ | Jmp_rel _
  | Jmp_rel8 _ | Jcc _ | Jcc8 _ | Int _ | Nop | Hlt ->
      i

let in_pool r = List.exists (Reg.equal r) Regalloc.pool

(* Byte registers aliasing the pool (only BL can): the permutation
   target may have no byte form, so such a function is not safely
   permutable.  The emitter only ever uses AL, so this never fires on
   generated code. *)
let uses_pool_r8 (f : Asm.func) =
  List.exists
    (function
      | Asm.Ins { insn = Setcc (_, r8) | Movzx_r_r8 (_, r8); _ } ->
          in_pool (Reg.of_r8 r8)
      | _ -> false)
    (Asm.items f)

let run ~rng (f : Asm.func) =
  let pool = Array.of_list Regalloc.pool in
  let image = Array.copy pool in
  Rng.shuffle rng image;
  if uses_pool_r8 f then (f, 0, 0)
  else begin
    let p r =
      let rec find i =
        if i >= Array.length pool then r
        else if Reg.equal pool.(i) r then image.(i)
        else find (i + 1)
      in
      find 0
    in
    let seen = ref 0 and changed = ref 0 in
    let items =
      List.map
        (fun item ->
          match item with
          | Asm.Ins { insn; _ } ->
              incr seen;
              let insn' = map_insn p insn in
              (* Only a rewritten instruction is re-encoded. *)
              if Insn.equal insn insn' then item
              else begin
                incr changed;
                Asm.ins insn'
              end
          | Asm.Mov_sym (r, s) ->
              incr seen;
              let r' = p r in
              if not (Reg.equal r r') then incr changed;
              Asm.Mov_sym (r', s)
          | Asm.Label _ | Asm.Jmp_sym _ | Asm.Jcc_sym _ | Asm.Call_sym _ ->
              item)
        (Asm.items f)
    in
    (Asm.func (Asm.name f) items, !seen, !changed)
  end
