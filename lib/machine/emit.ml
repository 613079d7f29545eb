open Insn

(* Where a value lives after register allocation. *)
type vloc = Vreg of Reg.t | Vmem of Insn.mem

type frame = {
  assignment : Regalloc.assignment;
  saved : Reg.t list;  (* callee-saved registers written by this function *)
  slot_disp : (int * int32) list;  (* slot id -> ebp-relative displacement *)
  frame_bytes : int;  (* bytes to subtract from ESP after saves *)
}

let ebp_mem disp = Insn.mem_base ~disp Reg.EBP

let build_frame (f : Mir.func) (assignment : Regalloc.assignment) =
  let saved = assignment.used_callee_saved in
  let ns = List.length saved in
  (* Saves occupy [ebp-4 .. ebp-4*ns]; spills follow; slots after that. *)
  let spill_base = 4 * ns in
  let slot_start = spill_base + (4 * assignment.spill_count) in
  let slot_disp, slot_end =
    List.fold_left
      (fun (acc, off) (s : Ir.slot) ->
        let off = off + (4 * s.size_words) in
        ((s.slot_id, Int32.of_int (-off)) :: acc, off))
      ([], slot_start) f.slots
  in
  (* The frame must cover saves, spills and slots; [slot_end] already
     accumulates all three areas. *)
  { assignment; saved; slot_disp; frame_bytes = slot_end }

let spill_mem frame k =
  let ns = List.length frame.saved in
  ebp_mem (Int32.of_int (-(4 * ns) - (4 * (k + 1))))

let param_mem i = ebp_mem (Int32.of_int (8 + (4 * i)))

let slot_disp frame s =
  match List.assoc_opt s frame.slot_disp with
  | Some d -> d
  | None -> failwith (Printf.sprintf "Emit: unknown slot %d" s)

let vloc frame (r : Mir.reg) =
  match r with
  | Mir.Phys p -> Vreg p
  | Mir.Virt v -> (
      match Regalloc.loc_of frame.assignment v with
      | Regalloc.Lreg p -> Vreg p
      | Regalloc.Lspill k -> Vmem (spill_mem frame k))

let rm_of_vloc = function Vreg r -> Reg r | Vmem m -> Mem m

(* Move a machine operand into a specific scratch register. *)
let to_scratch frame scratch (op : Mir.mop) : Insn.t list =
  match op with
  | Mir.I imm -> [ Mov_r_imm (scratch, imm) ]
  | Mir.R r -> (
      match vloc frame r with
      | Vreg p when Reg.equal p scratch -> []
      | Vreg p -> [ Mov_r_rm (scratch, Reg p) ]
      | Vmem m -> [ Mov_r_rm (scratch, Mem m) ])

(* Store a scratch register into a destination location. *)
let from_scratch frame scratch (dst : Mir.reg) : Insn.t list =
  match vloc frame dst with
  | Vreg p when Reg.equal p scratch -> []
  | Vreg p -> [ Mov_r_rm (p, Reg scratch) ]
  | Vmem m -> [ Mov_rm_r (Mem m, scratch) ]

let cond_of_relop : Ir.relop -> Cond.t = function
  | Ir.Eq -> Cond.E
  | Ir.Ne -> Cond.NE
  | Ir.Lt -> Cond.L
  | Ir.Le -> Cond.LE
  | Ir.Gt -> Cond.G
  | Ir.Ge -> Cond.GE

let alu_of : Mir.alu -> Insn.alu = function
  | Mir.Aadd -> Add
  | Mir.Asub -> Sub
  | Mir.Aand -> And
  | Mir.Aor -> Or
  | Mir.Axor -> Xor

let shift_of : Mir.shift -> Insn.shift = function
  | Mir.Sshl -> Shl
  | Mir.Sshr -> Shr
  | Mir.Ssar -> Sar

(* Emit "cmp a, b" (so that the flags reflect a-b), using scratch EAX/EDX
   for memory-memory and immediate-first cases. *)
let emit_cmp frame (a : Mir.mop) (b : Mir.mop) : Insn.t list =
  match (a, b) with
  | Mir.I ia, Mir.I ib ->
      [ Mov_r_imm (Reg.EAX, ia); Alu_rm_imm (Cmp, Reg Reg.EAX, ib) ]
  | Mir.I ia, Mir.R rb ->
      Mov_r_imm (Reg.EAX, ia)
      :: (match vloc frame rb with
         | Vreg p -> [ Alu_r_rm (Cmp, Reg.EAX, Reg p) ]
         | Vmem m -> [ Alu_r_rm (Cmp, Reg.EAX, Mem m) ])
  | Mir.R ra, Mir.I ib -> [ Alu_rm_imm (Cmp, rm_of_vloc (vloc frame ra), ib) ]
  | Mir.R ra, Mir.R rb -> (
      match (vloc frame ra, vloc frame rb) with
      | la, Vreg pb -> [ Alu_rm_r (Cmp, rm_of_vloc la, pb) ]
      | Vreg pa, Vmem mb -> [ Alu_r_rm (Cmp, pa, Mem mb) ]
      | Vmem ma, Vmem mb ->
          [ Mov_r_rm (Reg.EDX, Mem mb); Alu_rm_r (Cmp, Mem ma, Reg.EDX) ])

(* The address held in a MIR register, as an x86 memory operand; spilled
   addresses bounce through EDX. *)
let addr_operand frame (r : Mir.reg) : Insn.t list * Insn.mem =
  match vloc frame r with
  | Vreg p -> ([], Insn.mem_base p)
  | Vmem m -> ([ Mov_r_rm (Reg.EDX, Mem m) ], Insn.mem_base Reg.EDX)

let expand frame (mi : Mir.minsn) : Insn.t list =
  match mi with
  | Mir.Mov (d, s) -> (
      match (vloc frame d, s) with
      | Vreg p, Mir.I imm -> [ Mov_r_imm (p, imm) ]
      | Vmem m, Mir.I imm -> [ Mov_rm_imm (Mem m, imm) ]
      | dl, Mir.R sr -> (
          match (dl, vloc frame sr) with
          | Vreg dp, Vreg sp ->
              if Reg.equal dp sp then [] else [ Mov_r_rm (dp, Reg sp) ]
          | Vreg dp, Vmem sm -> [ Mov_r_rm (dp, Mem sm) ]
          | Vmem dm, Vreg sp -> [ Mov_rm_r (Mem dm, sp) ]
          | Vmem dm, Vmem sm ->
              if Insn.equal_mem dm sm then []
              else [ Mov_r_rm (Reg.EAX, Mem sm); Mov_rm_r (Mem dm, Reg.EAX) ]))
  | Mir.Load (d, a) -> (
      let pre, mem =
        match a with
        | Mir.Areg r -> addr_operand frame r
        | Mir.Aslot s -> ([], ebp_mem (slot_disp frame s))
        | Mir.Aparam i -> ([], param_mem i)
      in
      match vloc frame d with
      | Vreg p -> pre @ [ Mov_r_rm (p, Mem mem) ]
      | Vmem dm -> pre @ [ Mov_r_rm (Reg.EAX, Mem mem); Mov_rm_r (Mem dm, Reg.EAX) ])
  | Mir.Store (a, s) -> (
      let pre, mem =
        match a with
        | Mir.Areg r -> addr_operand frame r
        | Mir.Aslot sl -> ([], ebp_mem (slot_disp frame sl))
        | Mir.Aparam i -> ([], param_mem i)
      in
      match s with
      | Mir.I imm -> pre @ [ Mov_rm_imm (Mem mem, imm) ]
      | Mir.R r -> (
          match vloc frame r with
          | Vreg p -> pre @ [ Mov_rm_r (Mem mem, p) ]
          | Vmem sm ->
              pre @ [ Mov_r_rm (Reg.EAX, Mem sm); Mov_rm_r (Mem mem, Reg.EAX) ]))
  | Mir.Alu (op, d, s) -> (
      let alu = alu_of op in
      match (vloc frame d, s) with
      | dl, Mir.I imm -> [ Alu_rm_imm (alu, rm_of_vloc dl, imm) ]
      | dl, Mir.R sr -> (
          match (dl, vloc frame sr) with
          | dl, Vreg sp -> [ Alu_rm_r (alu, rm_of_vloc dl, sp) ]
          | Vreg dp, Vmem sm -> [ Alu_r_rm (alu, dp, Mem sm) ]
          | Vmem dm, Vmem sm ->
              [ Mov_r_rm (Reg.EAX, Mem sm); Alu_rm_r (alu, Mem dm, Reg.EAX) ]))
  | Mir.Imul (d, s) -> (
      match vloc frame d with
      | Vreg dp -> (
          match s with
          | Mir.I imm -> [ Mov_r_imm (Reg.ECX, imm); Imul_r_rm (dp, Reg Reg.ECX) ]
          | Mir.R sr -> [ Imul_r_rm (dp, rm_of_vloc (vloc frame sr)) ])
      | Vmem dm ->
          Mov_r_rm (Reg.EAX, Mem dm)
          ::
          (match s with
          | Mir.I imm -> [ Mov_r_imm (Reg.ECX, imm); Imul_r_rm (Reg.EAX, Reg Reg.ECX) ]
          | Mir.R sr -> [ Imul_r_rm (Reg.EAX, rm_of_vloc (vloc frame sr)) ])
          @ [ Mov_rm_r (Mem dm, Reg.EAX) ])
  | Mir.Neg d -> [ Neg (rm_of_vloc (vloc frame d)) ]
  | Mir.Not d -> [ Not (rm_of_vloc (vloc frame d)) ]
  | Mir.Shift (sh, d, s) -> (
      let shift = shift_of sh in
      let d_rm = rm_of_vloc (vloc frame d) in
      match s with
      | Mir.I imm -> [ Shift_imm (shift, d_rm, Int32.to_int imm land 31) ]
      | Mir.R _ -> to_scratch frame Reg.ECX s @ [ Shift_cl (shift, d_rm) ])
  | Mir.Div { dst; dividend; divisor; want_rem } ->
      let div_insns =
        match divisor with
        | Mir.I imm -> [ Mov_r_imm (Reg.ECX, imm); Idiv (Reg Reg.ECX) ]
        | Mir.R r -> [ Idiv (rm_of_vloc (vloc frame r)) ]
      in
      to_scratch frame Reg.EAX dividend
      @ [ Cdq ] @ div_insns
      @ from_scratch frame (if want_rem then Reg.EDX else Reg.EAX) dst
  | Mir.Set (rel, d, a, b) ->
      emit_cmp frame a b
      @ [ Setcc (cond_of_relop rel, Reg.AL) ]
      @ (match vloc frame d with
        | Vreg p -> [ Movzx_r_r8 (p, Reg.AL) ]
        | Vmem m -> [ Movzx_r_r8 (Reg.EAX, Reg.AL); Mov_rm_r (Mem m, Reg.EAX) ])
  | Mir.Lea_slot (d, s) -> (
      let m = ebp_mem (slot_disp frame s) in
      match vloc frame d with
      | Vreg p -> [ Lea (p, m) ]
      | Vmem dm -> [ Lea (Reg.EAX, m); Mov_rm_r (Mem dm, Reg.EAX) ])
  | Mir.Lea_global _ -> assert false (* handled at the item level *)
  | Mir.Call _ -> assert false (* handled at the item level *)

(* Instructions that expand to symbolic items (relocations) rather than
   plain instructions. *)
let expand_items frame (mi : Mir.minsn) : Asm.item list =
  match mi with
  | Mir.Lea_global (d, g) -> (
      match vloc frame d with
      | Vreg p -> [ Asm.Mov_sym (p, g) ]
      | Vmem m ->
          [ Asm.Mov_sym (Reg.EAX, g); Asm.ins (Mov_rm_r (Mem m, Reg.EAX)) ])
  | Mir.Call { dst; callee; args } ->
      let pushes =
        List.concat_map
          (fun (arg : Mir.mop) ->
            match arg with
            | Mir.I imm -> [ Asm.ins (Push_imm imm) ]
            | Mir.R r -> (
                match vloc frame r with
                | Vreg p -> [ Asm.ins (Push_r p) ]
                | Vmem m ->
                    [
                      Asm.ins (Mov_r_rm (Reg.EAX, Mem m));
                      Asm.ins (Push_r Reg.EAX);
                    ]))
          (List.rev args)
      in
      let cleanup =
        if args = [] then []
        else
          [
            Asm.ins
              (Alu_rm_imm (Add, Reg Reg.ESP, Int32.of_int (4 * List.length args)));
          ]
      in
      let result =
        match dst with
        | None -> []
        | Some d -> List.map Asm.ins (from_scratch frame Reg.EAX d)
      in
      pushes @ [ Asm.Call_sym callee ] @ cleanup @ result
  | _ -> List.map Asm.ins (expand frame mi)

let prologue frame =
  let saves =
    List.mapi
      (fun i r -> Mov_rm_r (Mem (ebp_mem (Int32.of_int (-4 * (i + 1)))), r))
      frame.saved
  in
  [ Push_r Reg.EBP; Mov_rm_r (Reg Reg.EBP, Reg.ESP) ]
  @ (if frame.frame_bytes > 0 then
       [ Alu_rm_imm (Sub, Reg Reg.ESP, Int32.of_int frame.frame_bytes) ]
     else [])
  @ saves

let epilogue frame =
  let restores =
    List.mapi
      (fun i r -> Mov_r_rm (r, Mem (ebp_mem (Int32.of_int (-4 * (i + 1))))))
      frame.saved
  in
  restores
  @ [ Mov_rm_r (Reg Reg.ESP, Reg.EBP); Pop_r Reg.EBP; Ret ]

let terminator frame ~next (t : Mir.mterm) : Asm.item list =
  match t with
  | Mir.Tret v ->
      let load =
        match v with
        | None -> [ Mov_r_imm (Reg.EAX, 0l) ]
        | Some op -> (
            match to_scratch frame Reg.EAX op with
            | [] -> [] (* value already in EAX — cannot happen for vregs *)
            | l -> l)
      in
      List.map Asm.ins (load @ epilogue frame)
  | Mir.Tjmp l -> if next = Some l then [] else [ Asm.Jmp_sym l ]
  | Mir.Tjcc (rel, a, b, l1, l2) ->
      let cmp = List.map Asm.ins (emit_cmp frame a b) in
      let jcc = Asm.Jcc_sym (cond_of_relop rel, l1) in
      let tail = if next = Some l2 then [] else [ Asm.Jmp_sym l2 ] in
      cmp @ (jcc :: tail)

let func (f : Mir.func) (assignment : Regalloc.assignment) : Asm.func =
  let frame = build_frame f assignment in
  let rec blocks = function
    | [] -> []
    | (b : Mir.block) :: rest ->
        let next =
          match rest with nb :: _ -> Some nb.Mir.label | [] -> None
        in
        let body = List.concat_map (expand_items frame) b.insns in
        (Asm.Label b.label :: body)
        @ terminator frame ~next b.term
        @ blocks rest
  in
  let items =
    match f.blocks with
    | [] -> []
    | entry :: _ ->
        (* Prologue precedes the entry block body but sits under its
           label so profile attribution is correct. *)
        let all = blocks f.blocks in
        let rec inject = function
          | Asm.Label l :: rest when l = entry.Mir.label ->
              Asm.Label l
              :: (List.map Asm.ins (prologue frame) @ rest)
          | item :: rest -> item :: inject rest
          | [] -> []
        in
        inject all
  in
  Asm.func f.name items
