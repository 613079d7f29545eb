(* The simulator front door.

   [run] and friends validate their arguments and execute on the
   block-cached engine in [Bsim] (per-offset closures, built the first
   time an offset executes and chained run to run) — the one production
   path.

   [Reference] is the seed fetch-decode-execute interpreter, kept
   verbatim below as the trusted differential oracle: an independent
   second implementation, so it catches engine bugs that a pinned
   fixture cannot.  It validates exactly as [run] does and borrows the
   block cache's decode memo, so repeated runs of one image decode each
   offset once whichever implementation executes.  Both hand a completed
   run to [Simcore.finished], which records the sim.* metrics, so the
   metrics are the same whichever one ran. *)

type exec_profile = Simcore.exec_profile = {
  insn_counts : int64 array;
  nop_counts : int64 array;
  cycle_counts : float array;
}

type sample_profile = Simcore.sample_profile = {
  period : float;
  sample_counts : int64 array;
  samples_taken : int64;
  sample_overhead_cycles : float;
}

let default_sample_period = Simcore.default_sample_period

type result = Simcore.result = {
  status : int32;
  output : string;
  instructions : int64;
  nops_retired : int64;
  cycles : float;
  icache_misses : int64;
  exec_profile : exec_profile option;
  sample_profile : sample_profile option;
}

type outcome = Simcore.outcome =
  | Finished of result
  | Faulted of { fault_msg : string; partial : result }

exception Fault = Simcore.Fault

let fault fmt = Simcore.fault fmt

type state = {
  regs : int32 array; (* indexed by Reg.encode *)
  mutable zf : bool;
  mutable sf : bool;
  mutable of_ : bool;
  mutable cf : bool;
  mutable pf : bool;
  mem : int32 array; (* data space, word-indexed, up to stack_top *)
  text : string;
  mutable eip : int; (* text offset *)
  decoded : (Insn.t * int) option array;
      (* decode memo, owned by the block cache and shared across runs *)
  out : Buffer.t;
  model : Timing.model;
  icache_tags : int array;
  mutable instructions : int64;
  mutable nops : int64;
  mutable misses : int64;
  mutable cycles : float;
  mutable running : bool;
  mutable status : int32;
  fuel : int64;
  prof : exec_profile option;  (* per-text-offset execution counters *)
  samp : sample_state option;  (* cycle-sampled PC recording *)
}

and sample_state = {
  s_period : float;  (* cycles between samples *)
  s_counts : int64 array;  (* per text offset: samples landing there *)
  mutable s_taken : int64;
  mutable s_next : float;  (* cycle threshold of the next sample *)
  mutable s_overhead : float;  (* cycles charged for taking samples *)
}

let data_base_i = Int32.to_int Link.data_base
let stack_top_i = Int32.to_int Link.stack_top
let text_base_i = Int32.to_int Link.text_base

let reg_get st r = st.regs.(Reg.encode r)
let reg_set st r v = st.regs.(Reg.encode r) <- v

let mem_read st (addr : int32) =
  let a = Int32.to_int addr land 0xFFFFFFFF in
  if a land 3 <> 0 then fault "unaligned load at 0x%x" a;
  if a < data_base_i || a >= stack_top_i then fault "load out of bounds: 0x%x" a;
  st.mem.(a lsr 2)

let mem_write st (addr : int32) v =
  let a = Int32.to_int addr land 0xFFFFFFFF in
  if a land 3 <> 0 then fault "unaligned store at 0x%x" a;
  if a < data_base_i || a >= stack_top_i then
    fault "store out of bounds: 0x%x" a;
  st.mem.(a lsr 2) <- v

let scale_int = function Insn.S1 -> 1l | Insn.S2 -> 2l | Insn.S4 -> 4l | Insn.S8 -> 8l

let effective_addr st ({ base; index; disp } : Insn.mem) =
  let b = match base with Some r -> reg_get st r | None -> 0l in
  let i =
    match index with
    | Some (r, s) -> Int32.mul (reg_get st r) (scale_int s)
    | None -> 0l
  in
  Int32.add (Int32.add b i) disp

let operand_read st = function
  | Insn.Reg r -> reg_get st r
  | Insn.Mem m -> mem_read st (effective_addr st m)

let operand_write st op v =
  match op with
  | Insn.Reg r -> reg_set st r v
  | Insn.Mem m -> mem_write st (effective_addr st m) v

let parity8 (v : int32) =
  let b = Int32.to_int v land 0xFF in
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + (n land 1)) in
  bits b 0 land 1 = 0

let set_logic_flags st res =
  st.zf <- Int32.equal res 0l;
  st.sf <- Int32.compare res 0l < 0;
  st.of_ <- false;
  st.cf <- false;
  st.pf <- parity8 res

let unsigned_lt (a : int32) (b : int32) =
  (* Compare as unsigned 32-bit. *)
  Int32.unsigned_compare a b < 0

let set_sub_flags st a b =
  let res = Int32.sub a b in
  st.zf <- Int32.equal res 0l;
  st.sf <- Int32.compare res 0l < 0;
  st.cf <- unsigned_lt a b;
  st.of_ <-
    Int32.compare (Int32.logxor a b) 0l < 0
    && Int32.compare (Int32.logxor a res) 0l < 0;
  st.pf <- parity8 res;
  res

let set_add_flags st a b =
  let res = Int32.add a b in
  st.zf <- Int32.equal res 0l;
  st.sf <- Int32.compare res 0l < 0;
  st.cf <- unsigned_lt res a;
  st.of_ <-
    Int32.compare (Int32.logxor a b) 0l >= 0
    && Int32.compare (Int32.logxor a res) 0l < 0;
  st.pf <- parity8 res;
  res

let cond_holds st (c : Cond.t) =
  match c with
  | Cond.O -> st.of_
  | Cond.NO -> not st.of_
  | Cond.B -> st.cf
  | Cond.AE -> not st.cf
  | Cond.E -> st.zf
  | Cond.NE -> not st.zf
  | Cond.BE -> st.cf || st.zf
  | Cond.A -> not (st.cf || st.zf)
  | Cond.S -> st.sf
  | Cond.NS -> not st.sf
  | Cond.P -> st.pf
  | Cond.NP -> not st.pf
  | Cond.L -> st.sf <> st.of_
  | Cond.GE -> st.sf = st.of_
  | Cond.LE -> st.zf || st.sf <> st.of_
  | Cond.G -> (not st.zf) && st.sf = st.of_

let alu_exec st (op : Insn.alu) a b =
  match op with
  | Insn.Add -> Some (set_add_flags st a b)
  | Insn.Or ->
      let r = Int32.logor a b in
      set_logic_flags st r;
      Some r
  | Insn.Adc ->
      let c = if st.cf then 1l else 0l in
      Some (set_add_flags st a (Int32.add b c))
  | Insn.Sbb ->
      let c = if st.cf then 1l else 0l in
      Some (set_sub_flags st a (Int32.add b c))
  | Insn.And ->
      let r = Int32.logand a b in
      set_logic_flags st r;
      Some r
  | Insn.Sub -> Some (set_sub_flags st a b)
  | Insn.Xor ->
      let r = Int32.logxor a b in
      set_logic_flags st r;
      Some r
  | Insn.Cmp ->
      ignore (set_sub_flags st a b);
      None

let push st v =
  let esp = Int32.sub (reg_get st Reg.ESP) 4l in
  reg_set st Reg.ESP esp;
  mem_write st esp v

let pop st =
  let esp = reg_get st Reg.ESP in
  let v = mem_read st esp in
  reg_set st Reg.ESP (Int32.add esp 4l);
  v

let jump_to_va st (va : int32) =
  let off = Int32.to_int (Int32.sub va Link.text_base) in
  if off < 0 || off >= String.length st.text then
    fault "control transfer outside text: 0x%lx" va;
  st.eip <- off

let syscall st =
  match Int32.to_int st.regs.(Reg.encode Reg.EAX) with
  | 1 ->
      st.running <- false;
      st.status <- reg_get st Reg.EBX
  | 4 ->
      Buffer.add_char st.out
        (Char.chr (Int32.to_int (reg_get st Reg.EBX) land 0xFF))
  | n -> fault "unknown syscall %d" n

let fetch st =
  let pos = st.eip in
  if pos < 0 || pos >= String.length st.text then
    fault "instruction fetch outside text at offset %d" pos;
  match st.decoded.(pos) with
  | Some d -> d
  | None -> (
      match Decode.insn ~pos st.text with
      | Some d ->
          st.decoded.(pos) <- Some d;
          d
      | None -> fault "undecodable bytes at text offset 0x%x" pos)

let icache_access st len =
  let va = text_base_i + st.eip in
  let lb = st.model.icache_line_bytes in
  let check addr =
    let line = addr / lb mod st.model.icache_lines in
    let tag = addr / lb in
    if st.icache_tags.(line) <> tag then begin
      st.icache_tags.(line) <- tag;
      st.misses <- Int64.add st.misses 1L;
      st.cycles <- st.cycles +. st.model.icache_miss_penalty
    end
  in
  check va;
  let last = va + len - 1 in
  if last / lb <> va / lb then check last

let exec_insn st (i : Insn.t) len =
  let next = st.eip + len in
  st.eip <- next;
  match i with
  | Insn.Mov_rm_r (dst, src) -> operand_write st dst (reg_get st src)
  | Insn.Mov_r_rm (dst, src) -> reg_set st dst (operand_read st src)
  | Insn.Mov_r_imm (dst, imm) -> reg_set st dst imm
  | Insn.Mov_rm_imm (dst, imm) -> operand_write st dst imm
  | Insn.Alu_rm_r (op, dst, src) -> (
      let a = operand_read st dst and b = reg_get st src in
      match alu_exec st op a b with
      | Some r -> operand_write st dst r
      | None -> ())
  | Insn.Alu_r_rm (op, dst, src) -> (
      let a = reg_get st dst and b = operand_read st src in
      match alu_exec st op a b with
      | Some r -> reg_set st dst r
      | None -> ())
  | Insn.Alu_rm_imm (op, dst, imm) -> (
      let a = operand_read st dst in
      match alu_exec st op a imm with
      | Some r -> operand_write st dst r
      | None -> ())
  | Insn.Test_rm_r (dst, src) ->
      set_logic_flags st (Int32.logand (operand_read st dst) (reg_get st src))
  | Insn.Lea (dst, m) -> reg_set st dst (effective_addr st m)
  | Insn.Inc_r r ->
      (* INC preserves CF. *)
      let cf = st.cf in
      reg_set st r (set_add_flags st (reg_get st r) 1l);
      st.cf <- cf
  | Insn.Dec_r r ->
      let cf = st.cf in
      reg_set st r (set_sub_flags st (reg_get st r) 1l);
      st.cf <- cf
  | Insn.Neg o ->
      let v = operand_read st o in
      let r = set_sub_flags st 0l v in
      st.cf <- not (Int32.equal v 0l);
      operand_write st o r
  | Insn.Not o -> operand_write st o (Int32.lognot (operand_read st o))
  | Insn.Imul_r_rm (dst, src) ->
      let r = Int32.mul (reg_get st dst) (operand_read st src) in
      reg_set st dst r
  | Insn.Mul o ->
      let a = Int64.logand (Int64.of_int32 (reg_get st Reg.EAX)) 0xFFFFFFFFL in
      let b = Int64.logand (Int64.of_int32 (operand_read st o)) 0xFFFFFFFFL in
      let p = Int64.mul a b in
      reg_set st Reg.EAX (Int64.to_int32 p);
      reg_set st Reg.EDX (Int64.to_int32 (Int64.shift_right_logical p 32))
  | Insn.Idiv o ->
      let divisor = Int64.of_int32 (operand_read st o) in
      if Int64.equal divisor 0L then fault "division by zero";
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int32 (reg_get st Reg.EDX)) 32)
          (Int64.logand (Int64.of_int32 (reg_get st Reg.EAX)) 0xFFFFFFFFL)
      in
      let q = Int64.div dividend divisor in
      if Int64.compare q 0x7FFFFFFFL > 0 || Int64.compare q (-0x80000000L) < 0
      then fault "division overflow";
      reg_set st Reg.EAX (Int64.to_int32 q);
      reg_set st Reg.EDX (Int64.to_int32 (Int64.rem dividend divisor))
  | Insn.Cdq ->
      reg_set st Reg.EDX
        (if Int32.compare (reg_get st Reg.EAX) 0l < 0 then -1l else 0l)
  | Insn.Shift_imm (sh, o, n) ->
      let v = operand_read st o in
      let n = n land 31 in
      let r =
        match sh with
        | Insn.Shl -> Int32.shift_left v n
        | Insn.Shr -> Int32.shift_right_logical v n
        | Insn.Sar -> Int32.shift_right v n
      in
      if n <> 0 then set_logic_flags st r;
      operand_write st o r
  | Insn.Shift_cl (sh, o) ->
      let v = operand_read st o in
      let n = Int32.to_int (reg_get st Reg.ECX) land 31 in
      let r =
        match sh with
        | Insn.Shl -> Int32.shift_left v n
        | Insn.Shr -> Int32.shift_right_logical v n
        | Insn.Sar -> Int32.shift_right v n
      in
      if n <> 0 then set_logic_flags st r;
      operand_write st o r
  | Insn.Push_r r -> push st (reg_get st r)
  | Insn.Push_imm imm -> push st imm
  | Insn.Pop_r r -> reg_set st r (pop st)
  | Insn.Ret -> jump_to_va st (pop st)
  | Insn.Ret_imm n ->
      let va = pop st in
      reg_set st Reg.ESP (Int32.add (reg_get st Reg.ESP) (Int32.of_int n));
      jump_to_va st va
  | Insn.Call_rel d ->
      push st (Int32.add Link.text_base (Int32.of_int next));
      let target = next + Int32.to_int d in
      if target < 0 || target >= String.length st.text then
        fault "call outside text";
      st.eip <- target
  | Insn.Call_rm o ->
      (* x86 reads the target before pushing the return address. *)
      let target = operand_read st o in
      push st (Int32.add Link.text_base (Int32.of_int next));
      jump_to_va st target
  | Insn.Jmp_rel d ->
      let target = next + Int32.to_int d in
      if target < 0 || target >= String.length st.text then
        fault "jump outside text";
      st.eip <- target
  | Insn.Jmp_rel8 d ->
      let target = next + d in
      if target < 0 || target >= String.length st.text then
        fault "jump outside text";
      st.eip <- target
  | Insn.Jmp_rm o -> jump_to_va st (operand_read st o)
  | Insn.Jcc (c, d) ->
      if cond_holds st c then begin
        let target = next + Int32.to_int d in
        if target < 0 || target >= String.length st.text then
          fault "jump outside text";
        st.eip <- target
      end
  | Insn.Jcc8 (c, d) ->
      if cond_holds st c then begin
        let target = next + d in
        if target < 0 || target >= String.length st.text then
          fault "jump outside text";
        st.eip <- target
      end
  | Insn.Setcc (c, r8) ->
      let r32 = Reg.of_r8 r8 in
      let old = reg_get st r32 in
      let bit = if cond_holds st c then 1l else 0l in
      reg_set st r32 (Int32.logor (Int32.logand old 0xFFFFFF00l) bit)
  | Insn.Movzx_r_r8 (dst, src8) ->
      let v = Int32.logand (reg_get st (Reg.of_r8 src8)) 0xFFl in
      reg_set st dst v
  | Insn.Xchg_rm_r (o, r) ->
      let a = operand_read st o and b = reg_get st r in
      operand_write st o b;
      reg_set st r a
  | Insn.Int 0x80 -> syscall st
  | Insn.Int n -> fault "unhandled interrupt 0x%x" n
  | Insn.Nop -> ()
  | Insn.Hlt ->
      st.running <- false;
      st.status <- reg_get st Reg.EAX

let step st =
  let off = st.eip in
  let c0 = st.cycles in
  let i, len = fetch st in
  icache_access st len;
  st.instructions <- Int64.add st.instructions 1L;
  if st.instructions > st.fuel then fault "fuel exhausted";
  let is_nop = Nops.is_candidate i in
  if is_nop then st.nops <- Int64.add st.nops 1L;
  st.cycles <- st.cycles +. Timing.insn_cost st.model i;
  (match st.prof with
  | None -> ()
  | Some p ->
      (* Attribute the retired instruction, candidate-NOP status and the
         cycles charged during this step (base cost plus any icache miss
         penalty) to the fetched offset. *)
      p.insn_counts.(off) <- Int64.add p.insn_counts.(off) 1L;
      if is_nop then p.nop_counts.(off) <- Int64.add p.nop_counts.(off) 1L;
      p.cycle_counts.(off) <- p.cycle_counts.(off) +. (st.cycles -. c0));
  (match st.samp with
  | None -> ()
  | Some s ->
      (* Every [s_period]-th retired cycle records the PC of the
         instruction retiring when the threshold is crossed — the
         simulator's model of a perf-style cycle-sampling interrupt.
         The number of samples due is computed before the sampling cost
         itself is charged, so a period smaller than the per-sample cost
         cannot re-trigger within the same step. *)
      if st.cycles >= s.s_next then begin
        let due =
          1 + int_of_float ((st.cycles -. s.s_next) /. s.s_period)
        in
        s.s_counts.(off) <- Int64.add s.s_counts.(off) (Int64.of_int due);
        s.s_taken <- Int64.add s.s_taken (Int64.of_int due);
        s.s_next <- s.s_next +. (float_of_int due *. s.s_period);
        let cost = float_of_int due *. st.model.sample_cost in
        s.s_overhead <- s.s_overhead +. cost;
        st.cycles <- st.cycles +. cost
      end);
  exec_insn st i len

let make_state ?(profile = false) ?sample_period ~fuel (image : Link.image) =
  let model = Timing.default in
  let prof =
    if not profile then None
    else
      let n = max 1 (String.length image.text) in
      Some
        {
          insn_counts = Array.make n 0L;
          nop_counts = Array.make n 0L;
          cycle_counts = Array.make n 0.0;
        }
  in
  let samp =
    match sample_period with
    | None -> None
    | Some p ->
        Some
          {
            s_period = float_of_int p;
            s_counts = Array.make (max 1 (String.length image.text)) 0L;
            s_taken = 0L;
            s_next = float_of_int p;
            s_overhead = 0.0;
          }
  in
  {
    regs = Array.make 8 0l;
    zf = false;
    sf = false;
    of_ = false;
    cf = false;
    pf = false;
    mem = Array.make (stack_top_i / 4) 0l;
    text = image.text;
    eip = image.entry;
    (* The decode memo belongs to the (shared, LRU'd) block cache:
       repeated runs of one image — population grids, the PGO loop —
       decode each offset once, whichever implementation executes. *)
    decoded = Bsim.decoded (Bsim.cache_for image model);
    out = Buffer.create 256;
    model;
    icache_tags = Array.make model.icache_lines (-1);
    instructions = 0L;
    nops = 0L;
    misses = 0L;
    cycles = 0.0;
    running = true;
    status = 0l;
    fuel;
    prof;
    samp;
  }

let init_data st (image : Link.image) =
  List.iter
    (fun (addr, words) ->
      let base = Int32.to_int addr lsr 2 in
      Array.iteri (fun i v -> st.mem.(base + i) <- v) words)
    image.data_init

let finish st =
  let sample_profile =
    Option.map
      (fun s ->
        {
          period = s.s_period;
          sample_counts = s.s_counts;
          samples_taken = s.s_taken;
          sample_overhead_cycles = s.s_overhead;
        })
      st.samp
  in
  {
    status = st.status;
    output = Buffer.contents st.out;
    instructions = st.instructions;
    nops_retired = st.nops;
    cycles = st.cycles;
    icache_misses = st.misses;
    exec_profile = st.prof;
    sample_profile;
  }

let interp_exec st : outcome =
  match
    while st.running do
      step st
    done
  with
  | () -> Simcore.finished (finish st)
  | exception Fault msg -> Faulted { fault_msg = msg; partial = finish st }

let default_fuel = Int64.shift_left 1L 40

let check_run (image : Link.image) ~args ~sample_period =
  if List.length args > Libc.argv_words then
    invalid_arg "Sim.run: too many arguments";
  if List.length args <> image.main_arity then
    invalid_arg
      (Printf.sprintf "Sim.run: main expects %d args, got %d" image.main_arity
         (List.length args));
  match sample_period with
  | Some p when float_of_int p <= Timing.default.sample_cost ->
      invalid_arg
        (Printf.sprintf
           "Sim: sample_period must exceed the per-sample cost (%g cycles)"
           Timing.default.sample_cost)
  | _ -> ()

let check_run_at (image : Link.image) ~start_offset =
  if start_offset < 0 || start_offset >= String.length image.text then
    invalid_arg "Sim.run_at: start offset outside text"

let result_of = function
  | Finished r -> r
  | Faulted { fault_msg; _ } -> raise (Fault fault_msg)

let run_outcome ?(fuel = default_fuel) ?profile ?sample_period
    (image : Link.image) ~args =
  check_run image ~args ~sample_period;
  Bsim.run_outcome ~fuel ?profile ?sample_period image ~args

let run ?fuel ?profile ?sample_period image ~args =
  result_of (run_outcome ?fuel ?profile ?sample_period image ~args)

let run_at_outcome ?(fuel = default_fuel) ?stack_image (image : Link.image)
    ~start_offset =
  check_run_at image ~start_offset;
  Bsim.run_at_outcome ~fuel ?stack_image image ~start_offset

let run_at ?fuel ?stack_image image ~start_offset =
  result_of (run_at_outcome ?fuel ?stack_image image ~start_offset)

module Reference = struct
  let run_outcome ?(fuel = default_fuel) ?profile ?sample_period
      (image : Link.image) ~args =
    check_run image ~args ~sample_period;
    let st = make_state ?profile ?sample_period ~fuel image in
    init_data st image;
    (* Write the arguments where the entry stub looks for them. *)
    let argv = Int32.to_int (Link.argv_address image) lsr 2 in
    List.iteri (fun i v -> st.mem.(argv + i) <- v) args;
    reg_set st Reg.ESP (Int32.sub Link.stack_top 16l);
    interp_exec st

  let run_at_outcome ?(fuel = default_fuel) ?(stack_image = [])
      (image : Link.image) ~start_offset =
    check_run_at image ~start_offset;
    let st = make_state ~fuel image in
    init_data st image;
    let esp =
      Int32.sub Link.stack_top
        (Int32.of_int (16 + (4 * List.length stack_image)))
    in
    reg_set st Reg.ESP esp;
    List.iteri
      (fun i v -> st.mem.((Int32.to_int esp lsr 2) + i) <- v)
      stack_image;
    st.eip <- start_offset;
    interp_exec st
end
