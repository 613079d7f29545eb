(* The reference interpreter, compiled to closures per run.

   [run] first resolves the whole module: every function becomes an
   array of blocks, every branch label a block index, every callee a
   shared record (a function or a builtin, with its call counter), every
   [Global_addr] its address and every [Stack_addr] its offset in the
   frame.  Each instruction and terminator is then compiled once into a
   closure over the frame's temps that tail-calls the next one, so
   execution is a chain of jumps: no lookup by name or label, no boxed
   [int32], no hashtable bump.  Temps and memory words are native [int]s
   in canonical sign-extended 32-bit form, the same representation
   [Bsim] uses for machine state.  The hottest shapes (add/sub/mul,
   constant shifts and masks, loads, compare-and-branch) get closures
   with the operation inline, and two adjacent pairs (an add feeding a
   load, an add or sub feeding a copy) share one closure.

   Fuel is charged per segment, not per instruction: a block body is
   split just after every call, and the last segment also covers the
   terminator.  A segment that fits in the remaining fuel is charged
   whole on entry and then runs unchecked; one that does not runs only
   the closures ending within the fuel and raises the fuel trap.  This
   is exact because a call always ends its segment, so [st.steps] is
   exact whenever control leaves the frame (callees, builtins, [exit]),
   and because only a closure's last instruction may trap: the first
   instruction of a fused pair is trap-free and writes only its own
   temp, so skipping a pair that straddles the fuel limit is not
   observable.

   None of this is observable: [Trap] messages, the step at which they
   fire, the output and the count tables (filled from plain [int]
   counters when the run ends) are those of executing the IR one
   instruction at a time.  test/golden_interp.json pins all of it for
   every workload. *)

type counts = {
  blocks : (string * Ir.label, int64) Hashtbl.t;
  edges : (string * Ir.label * Ir.label, int64) Hashtbl.t;
  calls : (string, int64) Hashtbl.t;
}

type result = { ret : int32; output : string; steps : int64; counts : counts }

exception Trap of string

exception Program_exit of int
(* Raised by the [exit] builtin to unwind the interpreter. *)

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* The base byte address of the global area; below it is unmapped so that
   null-ish pointers trap, as on a real OS. *)
let globals_base = 0x1000

(* The linked image places the __argv array (Libc.argv_words = 8 words)
   at the bottom of the data space, before the program's own globals.
   Reserve and populate the same 8 words here so both executions agree on
   every global's absolute address and on the contents of the argv area —
   without this, an access that is out of bounds relative to one layout
   can be silently in bounds relative to the other.  (psd_ir cannot
   depend on psd_link, so the constant is duplicated; a test pins the two
   together.) *)
let argv_words = 8

(* Bounds recursion even for frames with no stack slots; a real machine
   would exhaust its stack on the return addresses alone. *)
let max_call_depth = 10_000

(* Sign-extend the low 32 bits (see [Bsim.sext32]). *)
let[@inline] sext32 x = (x lsl 31) asr 31

let min_int32 = Int32.to_int Int32.min_int

(* Memory is paged so that a run pays only for the words it touches: a
   page is allocated on its first store, and until then every page is
   the one shared all-zero page, which is never written. *)
let page_bits = 12
let page_words = 1 lsl page_bits
let zero_page = Array.make page_words 0

type st = {
  pages : int array array; (* word [w] is [pages.(w lsr page_bits)];
                              canonical sext32 form *)
  mem_bytes : int;
  out : Buffer.t;
  mutable sp : int; (* byte address of the stack top *)
  mutable depth : int; (* current call depth *)
  mutable steps : int;
  fuel : int;
  mutable ret : int; (* the value of the last [Ret] executed *)
}

(* Compiled code is in continuation-passing form: an instruction's
   closure does its work and then tail-calls the closure of the next one
   ([k]), and the chain of a block's last segment ends in its
   terminator, which returns the next block's index. *)
type code = int array -> int

(* A block body is split just after every call into segments; see
   [compile_body]. *)
type seg = {
  len : int; (* steps covered, the closing call or terminator included *)
  run : code;
      (* the whole segment; the next block's index if it ends in the
         terminator, 0 if in a call *)
  cut : int -> int array -> unit;
      (* [cut room tm] runs the closures that end within [room] steps *)
}

type block = {
  label : Ir.label;
  mutable hits : int;
  calls : seg array; (* the segments that end in a call, in order *)
  last : seg; (* the segment that ends in the terminator *)
  succs : Ir.label array; (* successor labels, in [Ir.successors] order *)
  edges : int array; (* traversals per successor position *)
}

type fn = {
  ir : Ir.func;
  ntemps : int;
  slot_reach : int option;
      (* the deepest byte offset below the caller's sp that slot
         allocation reaches; [None] when the frame has no slots *)
  slot_bytes : int; (* total size of the frame's slots *)
  mutable blocks : block array;
}

type callee = { cname : string; target : fn option; mutable ncalls : int }

(* ------------------------------------------------------------------ *)
(* Machine helpers.                                                     *)

(* [seg] does not fit in the remaining fuel: run the closures that end
   within it, then raise the fuel trap for the step just past it. *)
let[@inline never] out_of_fuel st seg tm =
  seg.cut (st.fuel - st.steps) tm;
  st.steps <- st.fuel + 1;
  trap "fuel exhausted after %d steps" st.steps

(* Charge [seg] whole on entry, then run it without further checks. *)
let[@inline] run_seg st seg tm =
  if seg.len > st.fuel - st.steps then out_of_fuel st seg tm;
  st.steps <- st.steps + seg.len;
  seg.run tm

let[@inline] word st w =
  Array.unsafe_get
    (Array.unsafe_get st.pages (w lsr page_bits))
    (w land (page_words - 1))

let set_word st w v =
  let i = w lsr page_bits in
  let page = Array.unsafe_get st.pages i in
  let page =
    if page != zero_page then page
    else begin
      let fresh = Array.make page_words 0 in
      Array.unsafe_set st.pages i fresh;
      fresh
    end
  in
  Array.unsafe_set page (w land (page_words - 1)) v

let[@inline never] bad_load a =
  if a land 3 <> 0 then trap "unaligned load at 0x%x" a
  else trap "load out of bounds: 0x%x" a

let[@inline] load st addr =
  let a = addr land 0xFFFFFFFF in
  if a land 3 <> 0 || a < globals_base || a >= st.mem_bytes then bad_load a
  else word st (a lsr 2)

let store st addr v =
  let a = addr land 0xFFFFFFFF in
  if a land 3 <> 0 then trap "unaligned store at 0x%x" a;
  if a < globals_base || a >= st.mem_bytes then
    trap "store out of bounds: 0x%x" a;
  set_word st (a lsr 2) v

(* ------------------------------------------------------------------ *)
(* Compilation.                                                         *)

type opnd = T of Ir.temp | C of int

let opnd = function Ir.Temp t -> T t | Ir.Const c -> C (Int32.to_int c)
let read = function T t -> fun tm -> tm.(t) | C c -> fun _ -> c

(* [tm.(d) <- f a b], specialised on the operand shapes. *)
let bin2 d a b (f : int -> int -> int) (k : code) : code =
  match (opnd a, opnd b) with
  | T a, T b ->
      fun tm ->
        tm.(d) <- f tm.(a) tm.(b);
        k tm
  | T a, C c ->
      fun tm ->
        tm.(d) <- f tm.(a) c;
        k tm
  | C c, T b ->
      fun tm ->
        tm.(d) <- f c tm.(b);
        k tm
  | C c, C c' ->
      fun tm ->
        tm.(d) <- f c c';
        k tm

let relop : Ir.relop -> int -> int -> bool = function
  | Ir.Eq -> fun a b -> a = b
  | Ir.Ne -> fun a b -> a <> b
  | Ir.Lt -> fun a b -> a < b
  | Ir.Le -> fun a b -> a <= b
  | Ir.Gt -> fun a b -> a > b
  | Ir.Ge -> fun a b -> a >= b

let binop fname op : int -> int -> int =
  let div_error a b =
    trap "division error in %s (%ld %s %ld)" fname (Int32.of_int a)
      (Ir.binop_name op) (Int32.of_int b)
  in
  match op with
  | Ir.Add -> fun a b -> sext32 (a + b)
  | Ir.Sub -> fun a b -> sext32 (a - b)
  (* the native product wraps mod 2^63, which keeps the low 32 bits *)
  | Ir.Mul -> fun a b -> sext32 (a * b)
  | Ir.Div ->
      fun a b -> if b = 0 || (a = min_int32 && b = -1) then div_error a b else a / b
  | Ir.Rem ->
      fun a b ->
        if b = 0 || (a = min_int32 && b = -1) then div_error a b else a mod b
  | Ir.And -> ( land )
  | Ir.Or -> ( lor )
  | Ir.Xor -> ( lxor )
  (* The hardware masks shift counts to 5 bits; match it. *)
  | Ir.Shl -> fun a n -> sext32 (a lsl (n land 31))
  | Ir.Shr -> fun a n -> sext32 ((a land 0xFFFFFFFF) lsr (n land 31))
  | Ir.Sar -> fun a n -> a asr (n land 31)

(* [Bin (op, d, a, b)], with the operation inline for the hot shapes
   and through [binop] otherwise; the same values as [binop]. *)
let compile_bin fname op d a b k : code =
  match (op, opnd a, opnd b) with
  | Ir.Add, T a, T b ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) + tm.(b));
        k tm
  | Ir.Add, T a, C c ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) + c);
        k tm
  | Ir.Sub, T a, T b ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) - tm.(b));
        k tm
  | Ir.Sub, T a, C c ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) - c);
        k tm
  | Ir.Mul, T a, T b ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) * tm.(b));
        k tm
  | Ir.Mul, T a, C c ->
      fun tm ->
        tm.(d) <- sext32 (tm.(a) * c);
        k tm
  | Ir.Shl, T a, C c ->
      let n = c land 31 in
      fun tm ->
        tm.(d) <- sext32 (tm.(a) lsl n);
        k tm
  | Ir.Sar, T a, C c ->
      let n = c land 31 in
      fun tm ->
        tm.(d) <- tm.(a) asr n;
        k tm
  | Ir.And, T a, C c ->
      fun tm ->
        tm.(d) <- tm.(a) land c;
        k tm
  | _ -> bin2 d a b (binop fname op) k

let builtin st name nargs : int array -> int =
  match (name, nargs) with
  | "print_int", 1 ->
      fun v ->
        Buffer.add_string st.out (string_of_int v.(0));
        Buffer.add_char st.out '\n';
        0
  | "put_char", 1 ->
      fun v ->
        Buffer.add_char st.out (Char.chr (v.(0) land 0xFF));
        0
  | "exit", 1 -> fun v -> raise (Program_exit v.(0))
  | _ -> fun _ -> trap "unknown builtin %s/%d" name nargs

(* Run [f]'s blocks from the entry in a frame whose arguments are
   [args]; the result is the returned value. *)
let enter_fn st f args =
  let fname = f.ir.Ir.name in
  let tm = Array.make f.ntemps 0 in
  for i = 0 to Array.length args - 1 do
    tm.(i) <- args.(i)
  done;
  let saved_sp = st.sp in
  (match f.slot_reach with
  | Some reach ->
      if saved_sp - reach <= 0 then trap "stack overflow in %s" fname;
      st.sp <- saved_sp - f.slot_bytes
  | None -> ());
  let blocks = f.blocks in
  if Array.length blocks = 0 then trap "%s has no blocks" fname;
  let i = ref 0 in
  while !i >= 0 do
    let b = Array.unsafe_get blocks !i in
    b.hits <- b.hits + 1;
    let calls = b.calls in
    for s = 0 to Array.length calls - 1 do
      ignore (run_seg st (Array.unsafe_get calls s) tm)
    done;
    i := run_seg st b.last tm
  done;
  st.sp <- saved_sp;
  st.ret

(* A call of [c] with [nargs] arguments, as a function of the argument
   values: counts the call and bounds the depth before dispatching. *)
let call_site st c nargs : int array -> int =
  let invoke =
    match c.target with
    | None -> builtin st c.cname nargs
    | Some f ->
        let nparams = List.length f.ir.Ir.params in
        if nargs <> nparams then fun _ ->
          trap "%s called with %d args (expected %d)" c.cname nargs nparams
        else enter_fn st f
  in
  fun args ->
    c.ncalls <- c.ncalls + 1;
    st.depth <- st.depth + 1;
    if st.depth > max_call_depth then begin
      st.depth <- st.depth - 1;
      trap "call stack overflow in %s" c.cname
    end;
    let v = invoke args in
    st.depth <- st.depth - 1;
    v

(* Every instruction but a call, followed by [k]. *)
let compile_instr st ~global_addr f (k : code) : Ir.instr -> code =
  let fname = f.ir.Ir.name in
  function
  | Ir.Bin (op, d, a, b) -> compile_bin fname op d a b k
  | Ir.Cmp (rel, d, a, b) ->
      let r = relop rel in
      bin2 d a b (fun x y -> if r x y then 1 else 0) k
  | Ir.Neg (d, a) ->
      let a = read (opnd a) in
      fun tm ->
        tm.(d) <- sext32 (-a tm);
        k tm
  | Ir.Not (d, a) ->
      let a = read (opnd a) in
      fun tm ->
        tm.(d) <- lnot (a tm);
        k tm
  | Ir.Copy (d, a) -> (
      match opnd a with
      | T s ->
          fun tm ->
            tm.(d) <- tm.(s);
            k tm
      | C c ->
          fun tm ->
            tm.(d) <- c;
            k tm)
  | Ir.Load (d, a) -> (
      match opnd a with
      | T a ->
          fun tm ->
            tm.(d) <- load st tm.(a);
            k tm
      | C c ->
          fun tm ->
            tm.(d) <- load st c;
            k tm)
  | Ir.Store (a, v) ->
      let a = read (opnd a) and v = read (opnd v) in
      fun tm ->
        store st (a tm) (v tm);
        k tm
  | Ir.Global_addr (d, g) -> (
      match Hashtbl.find_opt global_addr g with
      | Some a ->
          let a = sext32 a in
          fun tm ->
            tm.(d) <- a;
            k tm
      | None -> fun _ -> trap "unknown global %s" g)
  | Ir.Stack_addr (d, s) -> (
      (* The slot's address relative to the frame's own stack top,
         which [st.sp] holds whenever this frame's code runs; the last
         slot carrying the id wins. *)
      let _, off =
        List.fold_left
          (fun (bytes, off) (sl : Ir.slot) ->
            let bytes = bytes + (4 * sl.Ir.size_words) in
            (bytes, if sl.Ir.slot_id = s then Some bytes else off))
          (0, None) f.ir.Ir.slots
      in
      match off with
      | Some off ->
          let up = f.slot_bytes - off in
          fun tm ->
            tm.(d) <- sext32 (st.sp + up);
            k tm
      | None -> fun _ -> trap "unknown slot %d in %s" s fname)
  | Ir.Call _ -> invalid_arg "Interp.compile_instr: call"

(* A call ends its segment, so its closure has no continuation. *)
let compile_call st ~callee dst name args : code =
  let args = Array.of_list (List.map (fun a -> read (opnd a)) args) in
  let call = call_site st (callee name) (Array.length args) in
  let eval tm = call (Array.map (fun a -> a tm) args) in
  match dst with
  | Some d ->
      fun tm ->
        tm.(d) <- eval tm;
        0
  | None ->
      fun tm ->
        ignore (eval tm);
        0

(* One closure for two adjacent instructions, for the hottest pairs.
   The first instruction of a pair is trap-free and writes only its own
   temp, so only the closure's last instruction may trap, and every temp
   of both is inside the frame, so no access fails either.  The two run
   in order, so an operand that names the first's destination reads its
   new value. *)
let fuse st f (i1 : Ir.instr) (i2 : Ir.instr) : (code -> code) option =
  let in_frame = List.for_all (fun t -> t >= 0 && t < f.ntemps) in
  match (i1, i2) with
  | Ir.Bin (Ir.Add, c, Ir.Temp x, Ir.Temp y), Ir.Load (d, Ir.Temp c')
    when c' = c && in_frame [ c; d; x; y ] ->
      Some
        (fun k tm ->
          let v = sext32 (tm.(x) + tm.(y)) in
          tm.(c) <- v;
          tm.(d) <- load st v;
          k tm)
  | Ir.Bin (Ir.Add, c, Ir.Temp x, Ir.Temp y), Ir.Copy (d, Ir.Temp c')
    when c' = c && in_frame [ c; d; x; y ] ->
      Some
        (fun k tm ->
          let v = sext32 (tm.(x) + tm.(y)) in
          tm.(c) <- v;
          tm.(d) <- v;
          k tm)
  | Ir.Bin (Ir.Sub, c, Ir.Temp x, Ir.Temp y), Ir.Copy (d, Ir.Temp c')
    when c' = c && in_frame [ c; d; x; y ] ->
      Some
        (fun k tm ->
          let v = sext32 (tm.(x) - tm.(y)) in
          tm.(c) <- v;
          tm.(d) <- v;
          k tm)
  | Ir.Bin (((Ir.Add | Ir.Sub) as op), c, Ir.Temp x, Ir.Const n), Ir.Copy (d, Ir.Temp c')
    when c' = c && in_frame [ c; d; x ] ->
      (* x - n and x + (-n) agree in the low 32 bits *)
      let n = if op = Ir.Sub then -Int32.to_int n else Int32.to_int n in
      Some
        (fun k tm ->
          let v = sext32 (tm.(x) + n) in
          tm.(c) <- v;
          tm.(d) <- v;
          k tm)
  | _ -> None

(* A block body as segments: the ones that end in a call, then the one
   that ends in the terminator.  The body is split just after every
   call; a call that ends the body still ends its segment, so the
   terminator is then a segment of its own.  Within a segment adjacent
   pairs are fused where [fuse] allows, and the closures are chained. *)
let compile_body st ~global_addr ~callee f instrs (term : code) =
  let seg ops last =
    (* [ops]: the closure builders with their widths, in order *)
    let chain ops last = List.fold_right (fun (_, build) k -> build k) ops last in
    let rec fits room = function
      | (w, build) :: ops when w <= room -> (w, build) :: fits (room - w) ops
      | _ -> []
    in
    {
      len = List.fold_left (fun n (w, _) -> n + w) 1 ops;
      run = chain ops last;
      cut = (fun room tm -> ignore (chain (fits room ops) (fun _ -> 0) tm));
    }
  in
  let one i = (1, fun k -> compile_instr st ~global_addr f k i) in
  let rec go calls ops = function
    | [] -> (Array.of_list (List.rev calls), seg (List.rev ops) term)
    | Ir.Call (dst, name, args) :: rest ->
        let call = compile_call st ~callee dst name args in
        go (seg (List.rev ops) call :: calls) [] rest
    | [ i ] -> go calls (one i :: ops) []
    | i1 :: (i2 :: rest' as rest) -> (
        match fuse st f i1 i2 with
        | Some build -> go calls ((2, build) :: ops) rest'
        | None -> go calls (one i1 :: ops) rest)
  in
  go [] [] instrs

(* Count the traversal of successor [pos] and go to block [i]. *)
let[@inline] take edges pos i =
  Array.unsafe_set edges pos (Array.unsafe_get edges pos + 1);
  i

(* [Cbr] whose successors are both defined, with the comparison inline
   for a temp against a temp or a constant. *)
let compile_cbr rel x y edges i1 i2 : code =
  match (rel, opnd x, opnd y) with
  | Ir.Eq, T a, T b -> fun tm -> if tm.(a) = tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Ne, T a, T b -> fun tm -> if tm.(a) <> tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Lt, T a, T b -> fun tm -> if tm.(a) < tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Le, T a, T b -> fun tm -> if tm.(a) <= tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Gt, T a, T b -> fun tm -> if tm.(a) > tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Ge, T a, T b -> fun tm -> if tm.(a) >= tm.(b) then take edges 0 i1 else take edges 1 i2
  | Ir.Eq, T a, C c -> fun tm -> if tm.(a) = c then take edges 0 i1 else take edges 1 i2
  | Ir.Ne, T a, C c -> fun tm -> if tm.(a) <> c then take edges 0 i1 else take edges 1 i2
  | Ir.Lt, T a, C c -> fun tm -> if tm.(a) < c then take edges 0 i1 else take edges 1 i2
  | Ir.Le, T a, C c -> fun tm -> if tm.(a) <= c then take edges 0 i1 else take edges 1 i2
  | Ir.Gt, T a, C c -> fun tm -> if tm.(a) > c then take edges 0 i1 else take edges 1 i2
  | Ir.Ge, T a, C c -> fun tm -> if tm.(a) >= c then take edges 0 i1 else take edges 1 i2
  | _, x, y ->
      let x = read x and y = read y and r = relop rel in
      fun tm -> if r (x tm) (y tm) then take edges 0 i1 else take edges 1 i2

(* Counts the edge taken; the next block's index, or -1 on [Ret]. *)
let compile_term st ~fname ~index ~succs ~edges : Ir.terminator -> code =
  (* Successor [pos]'s block index, or -1 for an undefined label: a
     branch there traps when it executes. *)
  let target pos =
    Option.value (Hashtbl.find_opt index succs.(pos)) ~default:(-1)
  in
  let defined = Array.for_all (Hashtbl.mem index) succs in
  let jump pos i =
    if i < 0 then trap "branch to undefined label L%d in %s" succs.(pos) fname
    else take edges pos i
  in
  function
  | Ir.Ret None ->
      fun _ ->
        st.ret <- 0;
        -1
  | Ir.Ret (Some o) ->
      let o = read (opnd o) in
      fun tm ->
        st.ret <- o tm;
        -1
  | Ir.Jmp _ ->
      let i = target 0 in
      if defined then fun _ -> take edges 0 i else fun _ -> jump 0 i
  | Ir.Cbr (rel, x, y, _, _) when defined ->
      compile_cbr rel x y edges (target 0) (target 1)
  | Ir.Cbr (rel, x, y, _, _) ->
      let x = read (opnd x) and y = read (opnd y) and r = relop rel in
      let i1 = target 0 and i2 = target 1 in
      fun tm -> if r (x tm) (y tm) then jump 0 i1 else jump 1 i2
  | Ir.Cbr_nz (x, _, _) ->
      let x = read (opnd x) in
      let i1 = target 0 and i2 = target 1 in
      fun tm -> if x tm <> 0 then jump 0 i1 else jump 1 i2

let compile_fn st ~global_addr ~callee f =
  let fname = f.ir.Ir.name in
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (b : Ir.block) ->
      if not (Hashtbl.mem index b.Ir.label) then Hashtbl.add index b.Ir.label i)
    f.ir.Ir.blocks;
  f.blocks <-
    Array.of_list
      (List.map
         (fun (ib : Ir.block) ->
           let succs = Array.of_list (Ir.successors ib.Ir.term) in
           let edges = Array.make (Array.length succs) 0 in
           let term = compile_term st ~fname ~index ~succs ~edges ib.Ir.term in
           let calls, last =
             compile_body st ~global_addr ~callee f ib.Ir.instrs term
           in
           { label = ib.Ir.label; hits = 0; calls; last; succs; edges })
         f.ir.Ir.blocks)

let new_fn (ir : Ir.func) =
  let reach, bytes =
    List.fold_left
      (fun (reach, bytes) (s : Ir.slot) ->
        let bytes = bytes + (4 * s.Ir.size_words) in
        (max reach bytes, bytes))
      (min_int, 0) ir.Ir.slots
  in
  {
    ir;
    ntemps = max ir.Ir.next_temp 1;
    slot_reach = (if ir.Ir.slots = [] then None else Some reach);
    slot_bytes = bytes;
    blocks = [||];
  }

let add tbl key n =
  if n > 0 then
    let old = Option.value (Hashtbl.find_opt tbl key) ~default:0L in
    Hashtbl.replace tbl key (Int64.add old (Int64.of_int n))

let counts fns callees =
  let c =
    {
      blocks = Hashtbl.create 64;
      edges = Hashtbl.create 64;
      calls = Hashtbl.create 16;
    }
  in
  List.iter
    (fun f ->
      let fname = f.ir.Ir.name in
      Array.iter
        (fun b ->
          add c.blocks (fname, b.label) b.hits;
          Array.iteri
            (fun pos n -> add c.edges (fname, b.label, b.succs.(pos)) n)
            b.edges)
        f.blocks)
    fns;
  Hashtbl.iter (fun name k -> add c.calls name k.ncalls) callees;
  c

(* The address space: 1 Mi words = 4 MiB. *)
let mem_words = 1 lsl 20

let run ?(fuel = Int64.shift_left 1L 40) modul ~entry ~args =
  if List.length args > argv_words then
    invalid_arg "Interp.run: too many arguments";
  let st =
    {
      pages =
        Array.make ((mem_words + page_words - 1) lsr page_bits) zero_page;
      mem_bytes = mem_words * 4;
      out = Buffer.create 256;
      sp = mem_words * 4;
      depth = 0;
      steps = 0;
      (* A fuel beyond [max_int] steps can never run out; a negative one
         runs out at the first step, as a fuel of 0 does. *)
      fuel = Int64.to_int (Int64.max 0L (Int64.min fuel (Int64.of_int max_int)));
      ret = 0;
    }
  in
  (* Mirror the machine image's data layout: the argv area first (holding
     the entry arguments, exactly as the simulator writes them before
     execution), then the globals in declaration order, with
     initializers copied in. *)
  let init w v =
    if w < 0 || w >= mem_words then invalid_arg "index out of bounds";
    set_word st w (Int32.to_int v)
  in
  List.iteri (fun i v -> init ((globals_base lsr 2) + i) v) args;
  let global_addr = Hashtbl.create 16 in
  let next = ref (globals_base + (4 * argv_words)) in
  List.iter
    (fun (g : Ir.global) ->
      Hashtbl.replace global_addr g.gname !next;
      (match g.init with
      | Some a ->
          Array.iteri (fun i v -> init ((!next lsr 2) + i) v) a
      | None -> ());
      next := !next + (4 * g.size_words))
    modul.Ir.globals;
  if !next > st.mem_bytes then trap "globals exceed memory";
  (* Resolve every function and callee, then compile the bodies; a
     function name resolves to the first function carrying it. *)
  let fns = List.map new_fn modul.Ir.funcs in
  let callees = Hashtbl.create 16 in
  let callee name =
    match Hashtbl.find_opt callees name with
    | Some c -> c
    | None ->
        let target =
          List.find_opt (fun f -> String.equal f.ir.Ir.name name) fns
        in
        let c = { cname = name; target; ncalls = 0 } in
        Hashtbl.add callees name c;
        c
  in
  List.iter (compile_fn st ~global_addr ~callee) fns;
  let args = Array.of_list (List.map Int32.to_int args) in
  let ret =
    try call_site st (callee entry) (Array.length args) args
    with Program_exit code -> code
  in
  {
    ret = Int32.of_int ret;
    output = Buffer.contents st.out;
    steps = Int64.of_int st.steps;
    counts = counts fns callees;
  }
