(* The block-cached execution engine.

   The reference interpreter in [Sim.Reference] re-derives everything per
   retired instruction: it re-matches the decoded instruction, recomputes
   its [Timing] cost, re-tests NOP candidacy (a deep structural comparison
   against the Table-1 list), divides to find icache lines, and carries
   all machine state in boxed [int32]/[int64]/[float] fields.  This engine
   pays those costs once per executed text offset instead: the first time
   an offset runs, its instruction is compiled into a *step*, a closure
   with the offset's static facts built in — the operation (the hot
   operand shapes inline), the flattened cost, whether it is a NOP
   candidate, and which icache probes it must make — that retires the
   instruction and tail-calls its fall-through successor's step.  The
   register file and data memory are untagged native-[int] arrays
   (sign-extended 32-bit canonical form), so executing allocates nothing.

   A *run* starts at an entry offset and ends at its first control-flow
   instruction (inclusive), or at the last decodable instruction before
   an undecodable offset or the end of text.  Runs entered at different
   offsets share the steps of their common suffix.  A run's *entry*
   closure makes the fuel check once for the whole run and the
   first-byte icache probe the run's first step would otherwise skip.  A
   run closed by [jcc], [jmp rel] or [call rel] tail-calls the entry of
   its successor run through a link that is resolved (and the successor
   built) on first use; every other control transfer, an undecodable or
   out-of-text target, and a run cut short by its fuel go back to the
   dispatch loop in [exec_loop], which makes the fetch checks.

   The cache is keyed on (text digest, timing model) and shared across
   runs in a small LRU — population grids and the PGO loop run the same
   image thousands of times and build each step once.  The interpreter
   borrows the cache's decode memo as well, so even oracle runs stop
   rebuilding per-run decode arrays.

   Everything observable must be *byte-identical* to the interpreter:
   same [Fault] messages raised after the same retired instructions,
   same modeled cycle float (every float addition happens in the same
   order — each icache miss penalty separately, then the per-insn cost,
   then sample costs), same profile and sampled-recording arrays.  The
   equivalence suite and the fuzz oracle lattice compare the full
   tuple. *)

open Simcore

let data_base_i = Int32.to_int Link.data_base
let stack_top_i = Int32.to_int Link.stack_top
let text_base_i = Int32.to_int Link.text_base

(* Sign-extend the low 32 bits: registers and memory words live as
   canonical sign-extended 32-bit values in native ints (OCaml ints are
   63-bit, so 32-bit wrap-around is a shift pair instead of a box). *)
let[@inline] sext32 x = (x lsl 31) asr 31

type st = {
  regs : int array; (* indexed by Reg.encode; canonical sext32 form *)
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable cf : bool;
  mutable pf : bool;
  mem : int array; (* data space, word-indexed, up to stack_top *)
  tlen : int; (* String.length text *)
  mutable eip : int; (* text offset; read by the dispatch loop only *)
  out : Buffer.t;
  itags : int array; (* icache tag per line *)
  cy : float array; (* cy.(0) = modeled cycles; a float array write
                       stays unboxed, a mutable float field would not *)
  mutable insns : int;
  mutable nops : int;
  mutable misses : int;
  mutable running : bool;
  mutable status : int; (* canonical sext32 form *)
  fuel : int;
  prof : bprof option;
  samp : bsamp option;
}

and bprof = {
  p_insn : int array;
  p_nop : int array;
  p_cyc : float array;
}

and bsamp = {
  sp : float; (* cycles between samples *)
  s_counts : int array;
  mutable s_taken : int;
  s_nf : float array; (* 0 = next sample threshold, 1 = overhead cycles *)
}

(* ------------------------------------------------------------------ *)
(* Machine helpers — each mirrors its [Sim] counterpart exactly,
   including fault message and check order.                            *)

let[@inline] mem_rd st va =
  let a = va land 0xFFFFFFFF in
  if a land 3 <> 0 then fault "unaligned load at 0x%x" a;
  if a < data_base_i || a >= stack_top_i then fault "load out of bounds: 0x%x" a;
  Array.unsafe_get st.mem (a lsr 2)

let[@inline] mem_wr st va v =
  let a = va land 0xFFFFFFFF in
  if a land 3 <> 0 then fault "unaligned store at 0x%x" a;
  if a < data_base_i || a >= stack_top_i then
    fault "store out of bounds: 0x%x" a;
  Array.unsafe_set st.mem (a lsr 2) v

(* Parity of the low byte, tabulated. *)
let ptab =
  Array.init 256 (fun b ->
      let rec bits n acc =
        if n = 0 then acc else bits (n lsr 1) (acc + (n land 1))
      in
      bits b 0 land 1 = 0)

let[@inline] set_logic_flags st res =
  st.zf <- res = 0;
  st.sf <- res < 0;
  st.of_ <- false;
  st.cf <- false;
  st.pf <- Array.unsafe_get ptab (res land 0xFF)

let[@inline] set_sub_flags st a b =
  let res = sext32 (a - b) in
  st.zf <- res = 0;
  st.sf <- res < 0;
  st.cf <- a land 0xFFFFFFFF < b land 0xFFFFFFFF;
  st.of_ <- a lxor b < 0 && a lxor res < 0;
  st.pf <- Array.unsafe_get ptab (res land 0xFF);
  res

let[@inline] set_add_flags st a b =
  let res = sext32 (a + b) in
  st.zf <- res = 0;
  st.sf <- res < 0;
  st.cf <- res land 0xFFFFFFFF < a land 0xFFFFFFFF;
  st.of_ <- a lxor b >= 0 && a lxor res < 0;
  st.pf <- Array.unsafe_get ptab (res land 0xFF);
  res

let compile_cond (c : Cond.t) : st -> bool =
  match c with
  | Cond.O -> fun st -> st.of_
  | Cond.NO -> fun st -> not st.of_
  | Cond.B -> fun st -> st.cf
  | Cond.AE -> fun st -> not st.cf
  | Cond.E -> fun st -> st.zf
  | Cond.NE -> fun st -> not st.zf
  | Cond.BE -> fun st -> st.cf || st.zf
  | Cond.A -> fun st -> not (st.cf || st.zf)
  | Cond.S -> fun st -> st.sf
  | Cond.NS -> fun st -> not st.sf
  | Cond.P -> fun st -> st.pf
  | Cond.NP -> fun st -> not st.pf
  | Cond.L -> fun st -> st.sf <> st.of_
  | Cond.GE -> fun st -> st.sf = st.of_
  | Cond.LE -> fun st -> st.zf || st.sf <> st.of_
  | Cond.G -> fun st -> (not st.zf) && st.sf = st.of_

let push st v =
  let esp = sext32 (Array.unsafe_get st.regs 4 - 4) in
  Array.unsafe_set st.regs 4 esp;
  mem_wr st esp v

let pop st =
  let esp = Array.unsafe_get st.regs 4 in
  let v = mem_rd st esp in
  Array.unsafe_set st.regs 4 (sext32 (esp + 4));
  v

let jump_to_va st va =
  let off = sext32 (va - text_base_i) in
  if off < 0 || off >= st.tlen then
    fault "control transfer outside text: 0x%lx" (Int32.of_int va);
  st.eip <- off

(* One icache probe: a miss retags the line and charges the penalty. *)
let[@inline] probe st pen line tag =
  let itags = st.itags in
  if Array.unsafe_get itags line <> tag then begin
    Array.unsafe_set itags line tag;
    st.misses <- st.misses + 1;
    Array.unsafe_set st.cy 0 (Array.unsafe_get st.cy 0 +. pen)
  end

(* Retire one instruction of cost [cost]: the counters every step
   updates, with no fuel test (the run's entry made it). *)
let[@inline] retire st cost =
  st.insns <- st.insns + 1;
  Array.unsafe_set st.cy 0 (Array.unsafe_get st.cy 0 +. cost)

(* ------------------------------------------------------------------ *)
(* The operation compiler: one [st -> unit] per instruction.  Operand
   accessors, ALU flag routines and condition tests are resolved here,
   when the step is built.                                             *)

let rd_reg r =
  let k = Reg.encode r in
  fun st -> Array.unsafe_get st.regs k

let wr_reg r =
  let k = Reg.encode r in
  fun st v -> Array.unsafe_set st.regs k v

let scale_int = function Insn.S1 -> 1 | Insn.S2 -> 2 | Insn.S4 -> 4 | Insn.S8 -> 8

let compile_ea ({ base; index; disp } : Insn.mem) : st -> int =
  let d = Int32.to_int disp in
  match (base, index) with
  | None, None -> fun _ -> d
  | Some b, None ->
      let kb = Reg.encode b in
      fun st -> sext32 (Array.unsafe_get st.regs kb + d)
  | Some b, Some (x, s) ->
      let kb = Reg.encode b and kx = Reg.encode x and m = scale_int s in
      fun st ->
        sext32
          (Array.unsafe_get st.regs kb + (Array.unsafe_get st.regs kx * m) + d)
  | None, Some (x, s) ->
      let kx = Reg.encode x and m = scale_int s in
      fun st -> sext32 ((Array.unsafe_get st.regs kx * m) + d)

let rd_op : Insn.operand -> st -> int = function
  | Insn.Reg r -> rd_reg r
  | Insn.Mem m ->
      let ea = compile_ea m in
      fun st -> mem_rd st (ea st)

let wr_op : Insn.operand -> st -> int -> unit = function
  | Insn.Reg r -> wr_reg r
  | Insn.Mem m ->
      let ea = compile_ea m in
      fun st v -> mem_wr st (ea st) v

(* [Some f]: compute result + flags.  [None]: flags only (Cmp). *)
let alu_compute : Insn.alu -> (st -> int -> int -> int) option = function
  | Insn.Add -> Some (fun st a b -> set_add_flags st a b)
  | Insn.Or ->
      Some
        (fun st a b ->
          let r = a lor b in
          set_logic_flags st r;
          r)
  | Insn.Adc ->
      Some
        (fun st a b ->
          let c = if st.cf then 1 else 0 in
          set_add_flags st a (sext32 (b + c)))
  | Insn.Sbb ->
      Some
        (fun st a b ->
          let c = if st.cf then 1 else 0 in
          set_sub_flags st a (sext32 (b + c)))
  | Insn.And ->
      Some
        (fun st a b ->
          let r = a land b in
          set_logic_flags st r;
          r)
  | Insn.Sub -> Some (fun st a b -> set_sub_flags st a b)
  | Insn.Xor ->
      Some
        (fun st a b ->
          let r = a lxor b in
          set_logic_flags st r;
          r)
  | Insn.Cmp -> None

let compile_shift (sh : Insn.shift) : int -> int -> int =
  match sh with
  | Insn.Shl -> fun v n -> sext32 (v lsl n)
  | Insn.Shr -> fun v n -> sext32 ((v land 0xFFFFFFFF) lsr n)
  | Insn.Sar -> fun v n -> v asr n

let syscall st =
  match Array.unsafe_get st.regs 0 (* EAX *) with
  | 1 ->
      st.running <- false;
      st.status <- Array.unsafe_get st.regs 3 (* EBX *)
  | 4 -> Buffer.add_char st.out (Char.chr (Array.unsafe_get st.regs 3 land 0xFF))
  | n -> fault "unknown syscall %d" n

(* Every instruction but the three whose successors are static
   ([jcc], [jmp rel], [call rel]; see [build_step]).  The other control
   transfers leave their target in [eip] for the dispatch loop: [ret]
   and [call]/[jmp r/m] through [jump_to_va], [int] by naming the next
   offset; [hlt] stops the machine. *)
let compile ~off ~len (i : Insn.t) : st -> unit =
  let next = off + len in
  match i with
  | Insn.Mov_rm_r (dst, src) ->
      let wr = wr_op dst and rs = rd_reg src in
      fun st -> wr st (rs st)
  | Insn.Mov_r_rm (dst, src) ->
      let wd = wr_reg dst and rd = rd_op src in
      fun st -> wd st (rd st)
  | Insn.Mov_r_imm (dst, imm) ->
      let wd = wr_reg dst and v = Int32.to_int imm in
      fun st -> wd st v
  | Insn.Mov_rm_imm (dst, imm) ->
      let wr = wr_op dst and v = Int32.to_int imm in
      fun st -> wr st v
  | Insn.Alu_rm_r (op, dst, src) -> (
      let rd = rd_op dst and wr = wr_op dst and rs = rd_reg src in
      match alu_compute op with
      | Some f ->
          fun st ->
            let a = rd st and b = rs st in
            wr st (f st a b)
      | None ->
          fun st ->
            let a = rd st and b = rs st in
            ignore (set_sub_flags st a b))
  | Insn.Alu_r_rm (op, dst, src) -> (
      let rdst = rd_reg dst and wdst = wr_reg dst and rs = rd_op src in
      match alu_compute op with
      | Some f ->
          fun st ->
            let a = rdst st and b = rs st in
            wdst st (f st a b)
      | None ->
          fun st ->
            let a = rdst st and b = rs st in
            ignore (set_sub_flags st a b))
  | Insn.Alu_rm_imm (op, dst, imm) -> (
      let rd = rd_op dst and wr = wr_op dst and b = Int32.to_int imm in
      match alu_compute op with
      | Some f ->
          fun st ->
            let a = rd st in
            wr st (f st a b)
      | None ->
          fun st ->
            let a = rd st in
            ignore (set_sub_flags st a b))
  | Insn.Test_rm_r (dst, src) ->
      let rd = rd_op dst and rs = rd_reg src in
      fun st -> set_logic_flags st (rd st land rs st)
  | Insn.Lea (dst, m) ->
      let wd = wr_reg dst and ea = compile_ea m in
      fun st -> wd st (ea st)
  | Insn.Inc_r r ->
      let rr = rd_reg r and wr = wr_reg r in
      fun st ->
        (* INC preserves CF. *)
        let cf = st.cf in
        wr st (set_add_flags st (rr st) 1);
        st.cf <- cf
  | Insn.Dec_r r ->
      let rr = rd_reg r and wr = wr_reg r in
      fun st ->
        let cf = st.cf in
        wr st (set_sub_flags st (rr st) 1);
        st.cf <- cf
  | Insn.Neg o ->
      let rd = rd_op o and wr = wr_op o in
      fun st ->
        let v = rd st in
        let r = set_sub_flags st 0 v in
        st.cf <- v <> 0;
        wr st r
  | Insn.Not o ->
      let rd = rd_op o and wr = wr_op o in
      fun st -> wr st (lnot (rd st))
  | Insn.Imul_r_rm (dst, src) ->
      let rdst = rd_reg dst and wdst = wr_reg dst and rs = rd_op src in
      fun st ->
        (* native product wraps mod 2^63, which preserves the low 32
           bits, so sext32 of it is the exact 32-bit wrap *)
        wdst st (sext32 (rdst st * rs st))
  | Insn.Mul o ->
      let rd = rd_op o in
      fun st ->
        let a =
          Int64.logand (Int64.of_int (Array.unsafe_get st.regs 0)) 0xFFFFFFFFL
        in
        let b = Int64.logand (Int64.of_int (rd st)) 0xFFFFFFFFL in
        let p = Int64.mul a b in
        Array.unsafe_set st.regs 0 (sext32 (Int64.to_int p));
        Array.unsafe_set st.regs 2
          (sext32 (Int64.to_int (Int64.shift_right_logical p 32)))
  | Insn.Idiv o ->
      let rd = rd_op o in
      fun st ->
        let divisor = Int64.of_int (rd st) in
        if Int64.equal divisor 0L then fault "division by zero";
        let dividend =
          Int64.logor
            (Int64.shift_left (Int64.of_int (Array.unsafe_get st.regs 2)) 32)
            (Int64.logand
               (Int64.of_int (Array.unsafe_get st.regs 0))
               0xFFFFFFFFL)
        in
        let q = Int64.div dividend divisor in
        if Int64.compare q 0x7FFFFFFFL > 0 || Int64.compare q (-0x80000000L) < 0
        then fault "division overflow";
        Array.unsafe_set st.regs 0 (Int64.to_int q);
        Array.unsafe_set st.regs 2 (Int64.to_int (Int64.rem dividend divisor))
  | Insn.Cdq ->
      fun st ->
        Array.unsafe_set st.regs 2
          (if Array.unsafe_get st.regs 0 < 0 then -1 else 0)
  | Insn.Shift_imm (sh, o, n) ->
      let rd = rd_op o and wr = wr_op o in
      let n = n land 31 in
      if n = 0 then fun st ->
        (* shift by 0: value unchanged, flags untouched *)
        wr st (rd st)
      else
        let f = compile_shift sh in
        fun st ->
          let r = f (rd st) n in
          set_logic_flags st r;
          wr st r
  | Insn.Shift_cl (sh, o) ->
      let rd = rd_op o and wr = wr_op o and f = compile_shift sh in
      fun st ->
        let v = rd st in
        let n = Array.unsafe_get st.regs 1 (* ECX *) land 31 in
        let r = f v n in
        if n <> 0 then set_logic_flags st r;
        wr st r
  | Insn.Push_r r ->
      let rr = rd_reg r in
      fun st -> push st (rr st)
  | Insn.Push_imm imm ->
      let v = Int32.to_int imm in
      fun st -> push st v
  | Insn.Pop_r r ->
      let wr = wr_reg r in
      fun st -> wr st (pop st)
  | Insn.Setcc (c, r8) ->
      let cond = compile_cond c in
      let r32 = Reg.of_r8 r8 in
      let rr = rd_reg r32 and wr = wr_reg r32 in
      fun st ->
        let old = rr st in
        let bit = if cond st then 1 else 0 in
        wr st ((old land lnot 0xFF) lor bit)
  | Insn.Movzx_r_r8 (dst, src8) ->
      let rs = rd_reg (Reg.of_r8 src8) and wd = wr_reg dst in
      fun st -> wd st (rs st land 0xFF)
  | Insn.Xchg_rm_r (o, r) ->
      let rd = rd_op o and wr = wr_op o and rr = rd_reg r and wrr = wr_reg r in
      fun st ->
        let a = rd st and b = rr st in
        wr st b;
        wrr st a
  | Insn.Nop -> fun _ -> ()
  | Insn.Ret -> fun st -> jump_to_va st (pop st)
  | Insn.Ret_imm n ->
      fun st ->
        let va = pop st in
        Array.unsafe_set st.regs 4
          (sext32 (Array.unsafe_get st.regs 4 + n));
        jump_to_va st va
  | Insn.Call_rm o ->
      let rd = rd_op o in
      let ret_va = sext32 (text_base_i + next) in
      fun st ->
        (* The target is read before the return address is pushed, as
           on x86 — it may be the very stack slot the push overwrites,
           or ESP itself. *)
        let target = rd st in
        push st ret_va;
        jump_to_va st target
  | Insn.Jmp_rm o ->
      let rd = rd_op o in
      fun st -> jump_to_va st (rd st)
  | Insn.Int 0x80 ->
      fun st ->
        syscall st;
        st.eip <- next
  | Insn.Int n -> fun _ -> fault "unhandled interrupt 0x%x" n
  | Insn.Hlt ->
      fun st ->
        st.running <- false;
        st.status <- Array.unsafe_get st.regs 0
  | Insn.Jcc _ | Insn.Jcc8 _ | Insn.Jmp_rel _ | Insn.Jmp_rel8 _
  | Insn.Call_rel _ ->
      invalid_arg "Bsim.compile: static control transfer"

(* ------------------------------------------------------------------ *)
(* The cache: the decode memo plus two families of lazily built steps
   and run entries, one without hooks and one with the profile and
   sample hooks built in.                                              *)

type family = {
  hooks : bool;
  entries : (st -> unit) array; (* run entry per offset, or [unbuilt] *)
  steps : (st -> unit) array; (* in-run step per offset, or [unbuilt] *)
}

type cache = {
  text : string;
  model : Timing.model;
  decoded : (Insn.t * int) option array; (* shared with the interpreter *)
  plain : family;
  mutable hooked : family option; (* made by the first hooked run *)
}

(* A successor run's entry, resolved on first use and kept. *)
type link = { mutable go : st -> unit }

let unbuilt : st -> unit = fun _ -> assert false

let family ~hooks n =
  { hooks; entries = Array.make n unbuilt; steps = Array.make n unbuilt }

let decoded c = c.decoded

(* The decode memo, filled on demand.  [None] in the memo means "not
   decoded yet" as well as "undecodable", so undecodable offsets are
   decoded again each time — only fetch faults and run ends ask. *)
let decode c off =
  match Array.unsafe_get c.decoded off with
  | Some _ as d -> d
  | None ->
      let d = Decode.insn ~pos:off c.text in
      if Option.is_some d then c.decoded.(off) <- d;
      d

let decodable c off =
  off >= 0 && off < String.length c.text && Option.is_some (decode c off)

let insn_at c off =
  match decode c off with Some d -> d | None -> assert false

(* Where the run through [off] continues after the instruction there:
   [Some next] unless that instruction transfers control or the next
   offset is undecodable or outside the text. *)
let fall_through c off =
  let i, len = insn_at c off in
  let nx = off + len in
  if Insn.is_control_flow i || not (decodable c nx) then None else Some nx

(* The number of instructions from [off] to the end of its run. *)
let run_insns c off =
  let rec go off n =
    match fall_through c off with None -> n | Some nx -> go nx (n + 1)
  in
  go off 1

(* Back to the dispatch loop, which fetches at [off]. *)
let to_dispatch off : st -> unit = fun st -> st.eip <- off

(* The icache lines an instruction's first and last bytes fall on:
   [(line1, tag1, line2, tag2)], [line2 = -1] if both bytes share a
   line. *)
let lines (m : Timing.model) ~off ~len =
  let lb = m.Timing.icache_line_bytes and n = m.Timing.icache_lines in
  let va = text_base_i + off in
  let t1 = va / lb and t2 = (va + len - 1) / lb in
  (t1 mod n, t1, (if t2 <> t1 then t2 mod n else -1), t2)

(* The fuel trap: the instruction that would retire past the fuel limit
   makes its icache probes, counts as retired, and faults before its
   cost is charged.  (Its first-byte probe is made even mid-run: there
   it is a certain hit, as the previous instruction ended on that
   line.) *)
let fuel_trap c off : st -> unit =
  let _, len = insn_at c off in
  let l1, t1, l2, t2 = lines c.model ~off ~len in
  let pen = c.model.Timing.icache_miss_penalty in
  fun st ->
    probe st pen l1 t1;
    if l2 >= 0 then probe st pen l2 t2;
    st.insns <- st.insns + 1;
    fault "fuel exhausted"

(* ------------------------------------------------------------------ *)
(* Step building.                                                      *)

(* A hooks-off step that falls through: the hot operand shapes from the
   dynamic instruction mix run inline, the rest through [compile]. *)
let plain_op ~cost ~next ~off ~len (i : Insn.t) : st -> unit =
  match i with
  | Insn.Mov_r_rm (dst, Insn.Mem { base = Some b; index = None; disp }) ->
      let kd = Reg.encode dst and kb = Reg.encode b and d = Int32.to_int disp in
      fun st ->
        retire st cost;
        let regs = st.regs in
        Array.unsafe_set regs kd
          (mem_rd st (sext32 (Array.unsafe_get regs kb + d)));
        next st
  | Insn.Mov_r_rm (dst, Insn.Reg src) | Insn.Mov_rm_r (Insn.Reg dst, src) ->
      let kd = Reg.encode dst and ks = Reg.encode src in
      fun st ->
        retire st cost;
        let regs = st.regs in
        Array.unsafe_set regs kd (Array.unsafe_get regs ks);
        next st
  | Insn.Mov_rm_r (Insn.Mem { base = Some b; index = None; disp }, src) ->
      let kb = Reg.encode b and ks = Reg.encode src and d = Int32.to_int disp in
      fun st ->
        retire st cost;
        let regs = st.regs in
        mem_wr st
          (sext32 (Array.unsafe_get regs kb + d))
          (Array.unsafe_get regs ks);
        next st
  | Insn.Mov_r_imm (dst, imm) ->
      let kd = Reg.encode dst and v = Int32.to_int imm in
      fun st ->
        retire st cost;
        Array.unsafe_set st.regs kd v;
        next st
  | Insn.Alu_rm_r (Insn.Add, Insn.Reg dst, src)
  | Insn.Alu_r_rm (Insn.Add, dst, Insn.Reg src) ->
      let kd = Reg.encode dst and ks = Reg.encode src in
      fun st ->
        retire st cost;
        let regs = st.regs in
        Array.unsafe_set regs kd
          (set_add_flags st (Array.unsafe_get regs kd) (Array.unsafe_get regs ks));
        next st
  | Insn.Alu_rm_imm (Insn.Add, Insn.Reg dst, imm) ->
      let kd = Reg.encode dst and v = Int32.to_int imm in
      fun st ->
        retire st cost;
        let regs = st.regs in
        Array.unsafe_set regs kd (set_add_flags st (Array.unsafe_get regs kd) v);
        next st
  | Insn.Alu_r_rm (Insn.Add, dst, Insn.Mem { base = Some b; index = None; disp })
    ->
      let kd = Reg.encode dst and kb = Reg.encode b and d = Int32.to_int disp in
      fun st ->
        retire st cost;
        let regs = st.regs in
        let v = mem_rd st (sext32 (Array.unsafe_get regs kb + d)) in
        Array.unsafe_set regs kd (set_add_flags st (Array.unsafe_get regs kd) v);
        next st
  | Insn.Alu_rm_imm (Insn.Cmp, Insn.Mem { base = Some b; index = None; disp }, imm)
    ->
      let kb = Reg.encode b and d = Int32.to_int disp and v = Int32.to_int imm in
      fun st ->
        retire st cost;
        let a = mem_rd st (sext32 (Array.unsafe_get st.regs kb + d)) in
        ignore (set_sub_flags st a v);
        next st
  | Insn.Alu_rm_imm (Insn.Cmp, Insn.Reg r, imm) ->
      let k = Reg.encode r and v = Int32.to_int imm in
      fun st ->
        retire st cost;
        ignore (set_sub_flags st (Array.unsafe_get st.regs k) v);
        next st
  | Insn.Shift_imm (sh, Insn.Reg r, n) when n land 31 <> 0 -> (
      let k = Reg.encode r and n = n land 31 in
      match sh with
      | Insn.Shl ->
          fun st ->
            retire st cost;
            let v = sext32 (Array.unsafe_get st.regs k lsl n) in
            set_logic_flags st v;
            Array.unsafe_set st.regs k v;
            next st
      | Insn.Shr ->
          fun st ->
            retire st cost;
            let v = sext32 ((Array.unsafe_get st.regs k land 0xFFFFFFFF) lsr n) in
            set_logic_flags st v;
            Array.unsafe_set st.regs k v;
            next st
      | Insn.Sar ->
          fun st ->
            retire st cost;
            let v = Array.unsafe_get st.regs k asr n in
            set_logic_flags st v;
            Array.unsafe_set st.regs k v;
            next st)
  | _ ->
      let op = compile ~off ~len i in
      fun st ->
        retire st cost;
        op st;
        next st

(* A hooks-on retirement: every probe, count and hook in the
   interpreter's order, profile cycles measured from before the probes.
   The first-byte probe is always made, so a hooked step is also its
   run's entry. *)
let[@inline] retire_hooked st ~off ~cost ~nop ~pen ~sample_cost ~l1 ~t1 ~l2
    ~t2 =
  let cy = st.cy in
  let c0 = Array.unsafe_get cy 0 in
  probe st pen l1 t1;
  if l2 >= 0 then probe st pen l2 t2;
  st.insns <- st.insns + 1;
  if nop then st.nops <- st.nops + 1;
  Array.unsafe_set cy 0 (Array.unsafe_get cy 0 +. cost);
  (match st.prof with
  | None -> ()
  | Some pr ->
      Array.unsafe_set pr.p_insn off (Array.unsafe_get pr.p_insn off + 1);
      if nop then
        Array.unsafe_set pr.p_nop off (Array.unsafe_get pr.p_nop off + 1);
      Array.unsafe_set pr.p_cyc off
        (Array.unsafe_get pr.p_cyc off +. (Array.unsafe_get cy 0 -. c0)));
  match st.samp with
  | None -> ()
  | Some s ->
      let c = Array.unsafe_get cy 0 in
      let nf = s.s_nf in
      if c >= Array.unsafe_get nf 0 then begin
        let due = 1 + int_of_float ((c -. Array.unsafe_get nf 0) /. s.sp) in
        Array.unsafe_set s.s_counts off (Array.unsafe_get s.s_counts off + due);
        s.s_taken <- s.s_taken + due;
        Array.unsafe_set nf 0
          (Array.unsafe_get nf 0 +. (float_of_int due *. s.sp));
        let cost = float_of_int due *. sample_cost in
        Array.unsafe_set nf 1 (Array.unsafe_get nf 1 +. cost);
        Array.unsafe_set cy 0 (c +. cost)
      end

(* A hooks-on step: the hooked retirement, then [op] and, unless [op]
   transfers control, [next]. *)
let hooked_step c ~off ~cost ~nop ~l1 ~t1 ~l2 ~t2 ~op ~next : st -> unit =
  let pen = c.model.Timing.icache_miss_penalty
  and sample_cost = c.model.Timing.sample_cost in
  match next with
  | None ->
      fun st ->
        retire_hooked st ~off ~cost ~nop ~pen ~sample_cost ~l1 ~t1 ~l2 ~t2;
        op st
  | Some next ->
      fun st ->
        retire_hooked st ~off ~cost ~nop ~pen ~sample_cost ~l1 ~t1 ~l2 ~t2;
        op st;
        next st

(* The step for the instruction at [off], continuing into [next] unless
   it transfers control.  [link c fam target] is the lazily resolved
   entry of a successor run. *)
let rec build_step c fam ~off ~(next : st -> unit) : st -> unit =
  let i, len = insn_at c off in
  let m = c.model in
  let cost = Timing.insn_cost m i and nop = Nops.is_candidate i in
  let l1, t1, l2, t2 = lines m ~off ~len in
  let pen = m.Timing.icache_miss_penalty in
  let tlen = String.length c.text in
  let nx = off + len in
  let static_target d =
    let target = nx + d in
    if target < 0 || target >= tlen then None else Some (link c fam target)
  in
  (* The transfers whose targets are static, displacements as ints. *)
  let transfer =
    match i with
    | Insn.Jcc (cc, d) -> `Jcc (cc, Int32.to_int d)
    | Insn.Jcc8 (cc, d) -> `Jcc (cc, d)
    | Insn.Jmp_rel d -> `Jmp (Int32.to_int d)
    | Insn.Jmp_rel8 d -> `Jmp d
    | Insn.Call_rel d -> `Call (Int32.to_int d)
    | _ -> `None
  in
  if fam.hooks then
    let op, next =
      match transfer with
      | `Jcc (cc, d) -> (
          let cond = compile_cond cc and ft = link c fam nx in
          match static_target d with
          | None ->
              ( (fun st ->
                  if cond st then fault "jump outside text" else ft.go st),
                None )
          | Some tk -> ((fun st -> if cond st then tk.go st else ft.go st), None))
      | `Jmp d -> (
          match static_target d with
          | None -> ((fun _ -> fault "jump outside text"), None)
          | Some tk -> ((fun st -> tk.go st), None))
      | `Call d -> (
          let ret_va = sext32 (text_base_i + nx) in
          match static_target d with
          | None ->
              ( (fun st ->
                  push st ret_va;
                  fault "call outside text"),
                None )
          | Some tk ->
              ( (fun st ->
                  push st ret_va;
                  tk.go st),
                None ))
      | `None when Insn.is_control_flow i -> (compile ~off ~len i, None)
      | `None -> (compile ~off ~len i, Some next)
    in
    hooked_step c ~off ~cost ~nop ~l1 ~t1 ~l2 ~t2 ~op ~next
  else
    let core =
      match transfer with
      | `Jcc (cc, d) -> (
          let cond = compile_cond cc and ft = link c fam nx in
          match static_target d with
          | None ->
              fun st ->
                retire st cost;
                if cond st then fault "jump outside text" else ft.go st
          | Some tk ->
              fun st ->
                retire st cost;
                if cond st then tk.go st else ft.go st)
      | `Jmp d -> (
          match static_target d with
          | None ->
              fun st ->
                retire st cost;
                fault "jump outside text"
          | Some tk ->
              fun st ->
                retire st cost;
                tk.go st)
      | `Call d -> (
          let ret_va = sext32 (text_base_i + nx) in
          match static_target d with
          | None ->
              fun st ->
                retire st cost;
                push st ret_va;
                fault "call outside text"
          | Some tk ->
              fun st ->
                retire st cost;
                push st ret_va;
                tk.go st)
      | `None when Insn.is_control_flow i ->
          let op = compile ~off ~len i in
          fun st ->
            retire st cost;
            op st
      | `None -> plain_op ~cost ~next ~off ~len i
    in
    (* The rare static facts wrap the core: the first-byte probe only at
       a line start (mid-run, the previous instruction's last byte was
       on the same line otherwise), the last-byte probe only when the
       instruction crosses a line, the NOP count only for candidates. *)
    let line_start = (text_base_i + off) mod m.Timing.icache_line_bytes = 0 in
    if not (line_start || l2 >= 0 || nop) then core
    else fun st ->
      if line_start then probe st pen l1 t1;
      if l2 >= 0 then probe st pen l2 t2;
      if nop then st.nops <- st.nops + 1;
      core st

(* The shared step at [off], building it and every missing step of the
   rest of its run, right to left. *)
and step c fam off : st -> unit =
  let s = Array.unsafe_get fam.steps off in
  if s != unbuilt then s
  else begin
    let rec missing off acc =
      let acc = off :: acc in
      match fall_through c off with
      | Some nx when fam.steps.(nx) == unbuilt -> missing nx acc
      | _ -> acc
    in
    List.iter
      (fun off ->
        let next =
          match fall_through c off with
          | Some nx -> fam.steps.(nx)
          | None ->
              let _, len = insn_at c off in
              to_dispatch (off + len)
        in
        fam.steps.(off) <- build_step c fam ~off ~next)
      (missing off []);
    fam.steps.(off)
  end

(* The entry of the run at the decodable offset [off]: if the run fits
   in the remaining fuel, its shared steps run with no fuel test;
   otherwise [cut] runs the instructions that fit and the fuel trap. *)
and entry c fam off : st -> unit =
  let e = Array.unsafe_get fam.entries off in
  if e != unbuilt then e
  else begin
    let n = run_insns c off and s = step c fam off in
    let _, len = insn_at c off in
    let l1, t1, _, _ = lines c.model ~off ~len in
    let pen = c.model.Timing.icache_miss_penalty in
    let line_start = (text_base_i + off) mod c.model.Timing.icache_line_bytes = 0 in
    let e =
      if fam.hooks || line_start then fun st ->
        if n <= st.fuel - st.insns then s st else cut c fam off st
      else fun st ->
        if n <= st.fuel - st.insns then begin
          probe st pen l1 t1;
          s st
        end
        else cut c fam off st
    in
    fam.entries.(off) <- e;
    e
  end

(* The run at [off] with less fuel left than it has instructions: a
   one-off chain of the steps that fit, then the fuel trap. *)
and cut c fam off st =
  let rec offsets off k acc =
    if k = 0 then (off, acc)
    else
      match fall_through c off with
      | Some nx -> offsets nx (k - 1) (off :: acc)
      | None -> assert false
  in
  let last, fit = offsets off (st.fuel - st.insns) [] in
  let chain =
    List.fold_left
      (fun next off -> build_step c fam ~off ~next)
      (fuel_trap c last) fit
  in
  (* The run's first-byte probe; a hooked step makes its own. *)
  if not fam.hooks then begin
    let _, len = insn_at c off in
    let l1, t1, _, _ = lines c.model ~off ~len in
    probe st c.model.Timing.icache_miss_penalty l1 t1
  end;
  chain st

and link c fam target : link =
  let l = { go = unbuilt } in
  l.go <-
    (fun st ->
      let e = if decodable c target then entry c fam target else to_dispatch target in
      l.go <- e;
      e st);
  l

(* The global cache, keyed on (text digest, timing model) and bounded
   to the 32 most recently used images.  No metrics are emitted here on
   purpose: hit/miss totals depend on which worker process ran which
   task, and the perf gate byte-compares merged telemetry across -j
   levels. *)
let caches : (string * Timing.model, cache) Memo.t =
  Memo.create ~capacity:32 ()

let cache_for (image : Link.image) (model : Timing.model) : cache =
  Memo.find_or_add caches (Digest.string image.text, model) (fun () ->
      let n = max 1 (String.length image.text) in
      {
        text = image.text;
        model;
        decoded = Array.make n None;
        plain = family ~hooks:false n;
        hooked = None;
      })

let hooked c =
  match c.hooked with
  | Some f -> f
  | None ->
      let f = family ~hooks:true (Array.length c.decoded) in
      c.hooked <- Some f;
      f

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

(* The dispatch loop: fetch checks, then the entry of the run at [eip],
   which chains through its successors until a transfer it cannot
   follow statically hands back with [eip] set.  Counters live in [st]
   and each step updates them, so a [Fault] leaves them exact. *)
let exec_loop (c : cache) (st : st) =
  let fam =
    if Option.is_some st.prof || Option.is_some st.samp then hooked c
    else c.plain
  in
  while st.running do
    let off = st.eip in
    if off < 0 || off >= st.tlen then
      fault "instruction fetch outside text at offset %d" off;
    let e = Array.unsafe_get fam.entries off in
    if e != unbuilt then e st
    else if decodable c off then entry c fam off st
    else fault "undecodable bytes at text offset 0x%x" off
  done

(* One spare data space, handed from a finished run to the next: a
   fresh 8 MiB array per run is major-heap garbage the GC must then
   sweep.  A run that finds no spare (the first run in a process)
   allocates its own. *)
let spare : int array option Atomic.t = Atomic.make None

let take_mem () =
  match Atomic.exchange spare None with
  | Some m ->
      Array.fill m 0 (Array.length m) 0;
      m
  | None -> Array.make (stack_top_i / 4) 0

let make_state ?(profile = false) ?sample_period ~fuel (image : Link.image)
    (model : Timing.model) : st =
  let n = max 1 (String.length image.text) in
  let prof =
    if not profile then None
    else
      Some
        {
          p_insn = Array.make n 0;
          p_nop = Array.make n 0;
          p_cyc = Array.make n 0.0;
        }
  in
  let samp =
    Option.map
      (fun p ->
        let pf = float_of_int p in
        { sp = pf; s_counts = Array.make n 0; s_taken = 0; s_nf = [| pf; 0.0 |] })
      sample_period
  in
  let fuel =
    if Int64.compare fuel (Int64.of_int max_int) >= 0 then max_int
    else Int64.to_int fuel
  in
  {
    regs = Array.make 8 0;
    zf = false;
    sf = false;
    of_ = false;
    cf = false;
    pf = false;
    mem = take_mem ();
    tlen = String.length image.text;
    eip = image.entry;
    out = Buffer.create 256;
    itags = Array.make model.Timing.icache_lines (-1);
    cy = [| 0.0 |];
    insns = 0;
    nops = 0;
    misses = 0;
    running = true;
    status = 0;
    fuel;
    prof;
    samp;
  }

let init_data st (image : Link.image) =
  List.iter
    (fun (addr, words) ->
      let base = Int32.to_int addr lsr 2 in
      Array.iteri (fun i v -> st.mem.(base + i) <- Int32.to_int v) words)
    image.data_init

let finish st : result =
  let cycles = st.cy.(0) in
  let sample_profile =
    Option.map
      (fun s ->
        {
          period = s.sp;
          sample_counts = Array.map Int64.of_int s.s_counts;
          samples_taken = Int64.of_int s.s_taken;
          sample_overhead_cycles = s.s_nf.(1);
        })
      st.samp
  in
  let exec_profile =
    match st.prof with
    | None -> None
    | Some p ->
        Some
          {
            insn_counts = Array.map Int64.of_int p.p_insn;
            nop_counts = Array.map Int64.of_int p.p_nop;
            cycle_counts = Array.copy p.p_cyc;
          }
  in
  {
    status = Int32.of_int st.status;
    output = Buffer.contents st.out;
    instructions = Int64.of_int st.insns;
    nops_retired = Int64.of_int st.nops;
    cycles;
    icache_misses = Int64.of_int st.misses;
    exec_profile;
    sample_profile;
  }

let exec_to_outcome cache st : outcome =
  let outcome =
    match exec_loop cache st with
    | () -> Simcore.finished (finish st)
    | exception Fault msg -> Faulted { fault_msg = msg; partial = finish st }
  in
  Atomic.set spare (Some st.mem);
  outcome

(* Argument validation lives in [Sim.run]. *)
let run_outcome ~fuel ?profile ?sample_period (image : Link.image) ~args :
    outcome =
  let cache = cache_for image Timing.default in
  let st = make_state ?profile ?sample_period ~fuel image Timing.default in
  init_data st image;
  let argv = Int32.to_int (Link.argv_address image) lsr 2 in
  List.iteri (fun i v -> st.mem.(argv + i) <- Int32.to_int v) args;
  st.regs.(Reg.encode Reg.ESP) <- stack_top_i - 16;
  exec_to_outcome cache st

let run_at_outcome ~fuel ?(stack_image = []) (image : Link.image)
    ~start_offset : outcome =
  let cache = cache_for image Timing.default in
  let st = make_state ~fuel image Timing.default in
  init_data st image;
  let esp = stack_top_i - (16 + (4 * List.length stack_image)) in
  st.regs.(Reg.encode Reg.ESP) <- esp;
  List.iteri
    (fun i v -> st.mem.((esp lsr 2) + i) <- Int32.to_int v)
    stack_image;
  st.eip <- start_offset;
  exec_to_outcome cache st
