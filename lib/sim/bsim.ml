(* The block-cached execution engine.

   The reference interpreter in [Sim.Reference] re-derives everything per retired
   instruction: it re-matches the decoded instruction, recomputes its
   [Timing] cost, re-tests NOP candidacy (a deep structural comparison
   against the Table-1 list), divides to find icache lines, and carries
   all machine state in boxed [int32]/[int64]/[float] fields.  This
   engine pays those costs once per text offset instead of once per
   retired instruction: [.text] is pre-decoded into a cache of parallel
   per-offset arrays — a compiled closure, the flattened cost-model
   value, the NOP bit, the icache line/tag pair(s) — seeded from the
   image's block-offset tables and swept over every remaining offset so
   [run_at] gadget entry points are covered too.  Execution is then an
   array walk: fetch becomes two array reads, and the register file and
   data memory are untagged native-[int] arrays (sign-extended 32-bit
   canonical form), so the hot loop allocates nothing.

   The cache is keyed on (text digest, timing model) and shared across
   runs in a small LRU — population grids and the PGO loop run the same
   image thousands of times and pay decode once.  The interpreter
   borrows the cache's decode memo as well, so even oracle runs stop
   rebuilding per-run decode arrays.

   Everything observable must be *byte-identical* to the interpreter:
   same [Fault] messages raised after the same retired instructions,
   same modeled cycle float (every float addition happens in the same
   order — per-insn cost, each icache miss penalty separately, sample
   costs), same profile and sampled-recording arrays.  The equivalence
   suite and the fuzz oracle lattice compare the full tuple. *)

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
  mutable eip : int; (* text offset *)
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

let mem_rd st va =
  let a = va land 0xFFFFFFFF in
  if a land 3 <> 0 then fault "unaligned load at 0x%x" a;
  if a < data_base_i || a >= stack_top_i then fault "load out of bounds: 0x%x" a;
  Array.unsafe_get st.mem (a lsr 2)

let mem_wr st va v =
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

(* ------------------------------------------------------------------ *)
(* The closure compiler: one [st -> unit] per decoded offset.  Operand
   accessors, ALU flag routines, condition tests and static branch
   targets are all resolved here, at decode time.                      *)

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

let compile ~tlen ~off ~len (i : Insn.t) : st -> unit =
  let next = off + len in
  match i with
  | Insn.Mov_rm_r (dst, src) ->
      let wr = wr_op dst and rs = rd_reg src in
      fun st ->
        st.eip <- next;
        wr st (rs st)
  | Insn.Mov_r_rm (dst, src) ->
      let wd = wr_reg dst and rd = rd_op src in
      fun st ->
        st.eip <- next;
        wd st (rd st)
  | Insn.Mov_r_imm (dst, imm) ->
      let wd = wr_reg dst and v = Int32.to_int imm in
      fun st ->
        st.eip <- next;
        wd st v
  | Insn.Mov_rm_imm (dst, imm) ->
      let wr = wr_op dst and v = Int32.to_int imm in
      fun st ->
        st.eip <- next;
        wr st v
  | Insn.Alu_rm_r (op, dst, src) -> (
      let rd = rd_op dst and wr = wr_op dst and rs = rd_reg src in
      match alu_compute op with
      | Some f ->
          fun st ->
            st.eip <- next;
            let a = rd st and b = rs st in
            wr st (f st a b)
      | None ->
          fun st ->
            st.eip <- next;
            let a = rd st and b = rs st in
            ignore (set_sub_flags st a b))
  | Insn.Alu_r_rm (op, dst, src) -> (
      let rdst = rd_reg dst and wdst = wr_reg dst and rs = rd_op src in
      match alu_compute op with
      | Some f ->
          fun st ->
            st.eip <- next;
            let a = rdst st and b = rs st in
            wdst st (f st a b)
      | None ->
          fun st ->
            st.eip <- next;
            let a = rdst st and b = rs st in
            ignore (set_sub_flags st a b))
  | Insn.Alu_rm_imm (op, dst, imm) -> (
      let rd = rd_op dst and wr = wr_op dst and b = Int32.to_int imm in
      match alu_compute op with
      | Some f ->
          fun st ->
            st.eip <- next;
            let a = rd st in
            wr st (f st a b)
      | None ->
          fun st ->
            st.eip <- next;
            let a = rd st in
            ignore (set_sub_flags st a b))
  | Insn.Test_rm_r (dst, src) ->
      let rd = rd_op dst and rs = rd_reg src in
      fun st ->
        st.eip <- next;
        set_logic_flags st (rd st land rs st)
  | Insn.Lea (dst, m) ->
      let wd = wr_reg dst and ea = compile_ea m in
      fun st ->
        st.eip <- next;
        wd st (ea st)
  | Insn.Inc_r r ->
      let rr = rd_reg r and wr = wr_reg r in
      fun st ->
        st.eip <- next;
        (* INC preserves CF. *)
        let cf = st.cf in
        wr st (set_add_flags st (rr st) 1);
        st.cf <- cf
  | Insn.Dec_r r ->
      let rr = rd_reg r and wr = wr_reg r in
      fun st ->
        st.eip <- next;
        let cf = st.cf in
        wr st (set_sub_flags st (rr st) 1);
        st.cf <- cf
  | Insn.Neg o ->
      let rd = rd_op o and wr = wr_op o in
      fun st ->
        st.eip <- next;
        let v = rd st in
        let r = set_sub_flags st 0 v in
        st.cf <- v <> 0;
        wr st r
  | Insn.Not o ->
      let rd = rd_op o and wr = wr_op o in
      fun st ->
        st.eip <- next;
        wr st (lnot (rd st))
  | Insn.Imul_r_rm (dst, src) ->
      let rdst = rd_reg dst and wdst = wr_reg dst and rs = rd_op src in
      fun st ->
        st.eip <- next;
        (* native product wraps mod 2^63, which preserves the low 32
           bits, so sext32 of it is the exact 32-bit wrap *)
        wdst st (sext32 (rdst st * rs st))
  | Insn.Mul o ->
      let rd = rd_op o in
      fun st ->
        st.eip <- next;
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
        st.eip <- next;
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
        st.eip <- next;
        Array.unsafe_set st.regs 2
          (if Array.unsafe_get st.regs 0 < 0 then -1 else 0)
  | Insn.Shift_imm (sh, o, n) ->
      let rd = rd_op o and wr = wr_op o in
      let n = n land 31 in
      if n = 0 then fun st ->
        st.eip <- next;
        (* shift by 0: value unchanged, flags untouched *)
        wr st (rd st)
      else
        let f = compile_shift sh in
        fun st ->
          st.eip <- next;
          let r = f (rd st) n in
          set_logic_flags st r;
          wr st r
  | Insn.Shift_cl (sh, o) ->
      let rd = rd_op o and wr = wr_op o and f = compile_shift sh in
      fun st ->
        st.eip <- next;
        let v = rd st in
        let n = Array.unsafe_get st.regs 1 (* ECX *) land 31 in
        let r = f v n in
        if n <> 0 then set_logic_flags st r;
        wr st r
  | Insn.Push_r r ->
      let rr = rd_reg r in
      fun st ->
        st.eip <- next;
        push st (rr st)
  | Insn.Push_imm imm ->
      let v = Int32.to_int imm in
      fun st ->
        st.eip <- next;
        push st v
  | Insn.Pop_r r ->
      let wr = wr_reg r in
      fun st ->
        st.eip <- next;
        wr st (pop st)
  | Insn.Ret ->
      fun st ->
        st.eip <- next;
        jump_to_va st (pop st)
  | Insn.Ret_imm n ->
      fun st ->
        st.eip <- next;
        let va = pop st in
        Array.unsafe_set st.regs 4
          (sext32 (Array.unsafe_get st.regs 4 + n));
        jump_to_va st va
  | Insn.Call_rel d ->
      let target = next + Int32.to_int d in
      let ret_va = sext32 (text_base_i + next) in
      if target < 0 || target >= tlen then fun st -> (
        st.eip <- next;
        push st ret_va;
        fault "call outside text")
      else fun st ->
        push st ret_va;
        st.eip <- target
  | Insn.Call_rm o ->
      let rd = rd_op o in
      let ret_va = sext32 (text_base_i + next) in
      fun st ->
        st.eip <- next;
        push st ret_va;
        jump_to_va st (rd st)
  | Insn.Jmp_rel d ->
      let target = next + Int32.to_int d in
      if target < 0 || target >= tlen then fun st -> (
        st.eip <- next;
        fault "jump outside text")
      else fun st -> st.eip <- target
  | Insn.Jmp_rel8 d ->
      let target = next + d in
      if target < 0 || target >= tlen then fun st -> (
        st.eip <- next;
        fault "jump outside text")
      else fun st -> st.eip <- target
  | Insn.Jmp_rm o ->
      let rd = rd_op o in
      fun st ->
        st.eip <- next;
        jump_to_va st (rd st)
  | Insn.Jcc (c, d) ->
      let cond = compile_cond c in
      let target = next + Int32.to_int d in
      if target < 0 || target >= tlen then fun st -> (
        st.eip <- next;
        if cond st then fault "jump outside text")
      else fun st -> st.eip <- (if cond st then target else next)
  | Insn.Jcc8 (c, d) ->
      let cond = compile_cond c in
      let target = next + d in
      if target < 0 || target >= tlen then fun st -> (
        st.eip <- next;
        if cond st then fault "jump outside text")
      else fun st -> st.eip <- (if cond st then target else next)
  | Insn.Setcc (c, r8) ->
      let cond = compile_cond c in
      let r32 = Reg.of_r8 r8 in
      let rr = rd_reg r32 and wr = wr_reg r32 in
      fun st ->
        st.eip <- next;
        let old = rr st in
        let bit = if cond st then 1 else 0 in
        wr st ((old land lnot 0xFF) lor bit)
  | Insn.Movzx_r_r8 (dst, src8) ->
      let rs = rd_reg (Reg.of_r8 src8) and wd = wr_reg dst in
      fun st ->
        st.eip <- next;
        wd st (rs st land 0xFF)
  | Insn.Xchg_rm_r (o, r) ->
      let rd = rd_op o and wr = wr_op o and rr = rd_reg r and wrr = wr_reg r in
      fun st ->
        st.eip <- next;
        let a = rd st and b = rr st in
        wr st b;
        wrr st a
  | Insn.Int 0x80 ->
      fun st ->
        st.eip <- next;
        syscall st
  | Insn.Int n ->
      fun st ->
        st.eip <- next;
        fault "unhandled interrupt 0x%x" n
  | Insn.Nop -> fun st -> st.eip <- next
  | Insn.Hlt ->
      fun st ->
        st.eip <- next;
        st.running <- false;
        st.status <- Array.unsafe_get st.regs 0

(* ------------------------------------------------------------------ *)
(* The block cache: parallel per-offset arrays over [.text].           *)

type cache = {
  text : string;
  model : Timing.model;
  decoded : (Insn.t * int) option array; (* shared with the interpreter *)
  ops : (st -> unit) array;
  costs : float array; (* flattened Timing.insn_cost per offset *)
  cflags : int array; (* 0 = undecodable; else (len lsl 1) lor nop_bit *)
  line1 : int array; (* icache line of the first instruction byte *)
  tag1 : int array;
  line2 : int array; (* line of the last byte iff it differs, else -1 *)
  tag2 : int array;
}

let dummy_op : st -> unit = fun _ -> assert false

let build (image : Link.image) (model : Timing.model) : cache =
  let text = image.text in
  let tlen = String.length text in
  let n = max 1 tlen in
  let decoded = Array.make n None in
  let ops = Array.make n dummy_op in
  let costs = Array.make n 0.0 in
  let cflags = Array.make n 0 in
  let line1 = Array.make n 0
  and tag1 = Array.make n 0
  and line2 = Array.make n (-1)
  and tag2 = Array.make n 0 in
  let lb = model.Timing.icache_line_bytes
  and lines = model.Timing.icache_lines in
  let install off i ilen =
    decoded.(off) <- Some (i, ilen);
    ops.(off) <- compile ~tlen ~off ~len:ilen i;
    costs.(off) <- Timing.insn_cost model i;
    let va = text_base_i + off in
    let t1 = va / lb in
    line1.(off) <- t1 mod lines;
    tag1.(off) <- t1;
    let t2 = (va + ilen - 1) / lb in
    if t2 <> t1 then begin
      line2.(off) <- t2 mod lines;
      tag2.(off) <- t2
    end;
    cflags.(off) <- (ilen lsl 1) lor (if Nops.is_candidate i then 1 else 0)
  in
  (* Seed decoding from the image's layout tables — entry stub, symbol
     starts and every basic-block start — following straight-line
     fall-through to the block terminator; this covers all offsets
     normal execution can reach. *)
  let seed_from start =
    let off = ref start in
    let continue = ref true in
    while !continue && !off >= 0 && !off < tlen && cflags.(!off) = 0 do
      match Decode.insn ~pos:!off text with
      | None -> continue := false
      | Some (i, ilen) ->
          install !off i ilen;
          if Insn.is_terminator i then continue := false
          else off := !off + ilen
    done
  in
  seed_from image.entry;
  seed_from image.user_start;
  List.iter (fun (_, o) -> seed_from o) image.symbols;
  List.iter
    (fun (_, blocks) -> List.iter (fun (_, o) -> seed_from o) blocks)
    image.block_offsets;
  (* Sweep the remaining offsets so [run_at] — gadget-style entry at an
     arbitrary, possibly misaligned offset — also finds its entries
     pre-compiled.  Offsets left at 0 are genuinely undecodable and
     fault on fetch, exactly like the interpreter. *)
  for off = 0 to tlen - 1 do
    if cflags.(off) = 0 then
      match Decode.insn ~pos:off text with
      | None -> ()
      | Some (i, ilen) -> install off i ilen
  done;
  {
    text;
    model;
    decoded;
    ops;
    costs;
    cflags;
    line1;
    tag1;
    line2;
    tag2;
  }

(* The global cache, keyed on (text digest, timing model) and bounded
   to the 32 most recently used images.  No metrics are emitted here on
   purpose: hit/miss totals depend on which worker process ran which
   task, and the perf gate byte-compares merged telemetry across -j
   levels. *)
let caches : (string * Timing.model, cache) Memo.t =
  Memo.create ~capacity:32 ()

let cache_for (image : Link.image) (model : Timing.model) : cache =
  Memo.find_or_add caches (Digest.string image.text, model) (fun () ->
      build image model)

let decoded c = c.decoded

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

let exec_loop (cache : cache) (st : st) =
  let ops = cache.ops
  and costs = cache.costs
  and cflags = cache.cflags
  and line1 = cache.line1
  and tag1 = cache.tag1
  and line2 = cache.line2
  and tag2 = cache.tag2 in
  let tlen = st.tlen in
  let itags = st.itags and cy = st.cy in
  let pen : float = cache.model.Timing.icache_miss_penalty in
  let sample_cost : float = cache.model.Timing.sample_cost in
  let fuel = st.fuel in
  while st.running do
    let off = st.eip in
    if off < 0 || off >= tlen then
      fault "instruction fetch outside text at offset %d" off;
    let fl = Array.unsafe_get cflags off in
    if fl = 0 then fault "undecodable bytes at text offset 0x%x" off;
    let c0 = Array.unsafe_get cy 0 in
    (* icache: first-byte line, then the last-byte line iff distinct —
       two separate penalty additions, matching the interpreter's float
       addition order exactly *)
    let l1 = Array.unsafe_get line1 off in
    let t1 = Array.unsafe_get tag1 off in
    if Array.unsafe_get itags l1 <> t1 then begin
      Array.unsafe_set itags l1 t1;
      st.misses <- st.misses + 1;
      Array.unsafe_set cy 0 (Array.unsafe_get cy 0 +. pen)
    end;
    let l2 = Array.unsafe_get line2 off in
    if l2 >= 0 then begin
      let t2 = Array.unsafe_get tag2 off in
      if Array.unsafe_get itags l2 <> t2 then begin
        Array.unsafe_set itags l2 t2;
        st.misses <- st.misses + 1;
        Array.unsafe_set cy 0 (Array.unsafe_get cy 0 +. pen)
      end
    end;
    let n = st.insns + 1 in
    st.insns <- n;
    if n > fuel then fault "fuel exhausted";
    if fl land 1 <> 0 then st.nops <- st.nops + 1;
    Array.unsafe_set cy 0 (Array.unsafe_get cy 0 +. Array.unsafe_get costs off);
    (match st.prof with
    | None -> ()
    | Some p ->
        Array.unsafe_set p.p_insn off (Array.unsafe_get p.p_insn off + 1);
        if fl land 1 <> 0 then
          Array.unsafe_set p.p_nop off (Array.unsafe_get p.p_nop off + 1);
        Array.unsafe_set p.p_cyc off
          (Array.unsafe_get p.p_cyc off +. (Array.unsafe_get cy 0 -. c0)));
    (match st.samp with
    | None -> ()
    | Some s ->
        let cyc = Array.unsafe_get cy 0 in
        let nf = s.s_nf in
        if cyc >= Array.unsafe_get nf 0 then begin
          let due = 1 + int_of_float ((cyc -. Array.unsafe_get nf 0) /. s.sp) in
          Array.unsafe_set s.s_counts off
            (Array.unsafe_get s.s_counts off + due);
          s.s_taken <- s.s_taken + due;
          Array.unsafe_set nf 0
            (Array.unsafe_get nf 0 +. (float_of_int due *. s.sp));
          let cost = float_of_int due *. sample_cost in
          Array.unsafe_set nf 1 (Array.unsafe_get nf 1 +. cost);
          Array.unsafe_set cy 0 (cyc +. cost)
        end);
    (Array.unsafe_get ops off) st
  done

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
    match sample_period with
    | None -> None
    | Some p when p <= 0 -> invalid_arg "Sim: sample_period must be positive"
    | Some p ->
        let pf = float_of_int p in
        Some { sp = pf; s_counts = Array.make n 0; s_taken = 0; s_nf = [| pf; 0.0 |] }
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
    mem = Array.make (stack_top_i / 4) 0;
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
  match exec_loop cache st with
  | () -> Simcore.finished (finish st)
  | exception Fault msg -> Faulted { fault_msg = msg; partial = finish st }

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
