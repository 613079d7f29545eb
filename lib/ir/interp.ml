(* The reference interpreter, compiled to closures per run.

   [run] first resolves the whole module: every function becomes an
   array of blocks, every branch label a block index, every callee a
   shared record (a function or a builtin, with its call counter), every
   [Global_addr] its address and every [Stack_addr] its offset in the
   frame.  Each instruction and terminator is then compiled once into a
   closure over the frame's temps, so execution is an array walk: no
   lookup by name or label, no boxed [int32], no hashtable bump.  Temps
   and memory words are native [int]s in canonical sign-extended 32-bit
   form, the same representation [Bsim] uses for machine state.

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

type block = {
  label : Ir.label;
  mutable hits : int;
  body : (int array -> unit) array;
  term : int array -> int;
      (* counts the edge taken; the next block's index, or -1 on [Ret] *)
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

let[@inline never] out_of_fuel st = trap "fuel exhausted after %d steps" st.steps

let[@inline] tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then out_of_fuel st

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

let load st addr =
  let a = addr land 0xFFFFFFFF in
  if a land 3 <> 0 then trap "unaligned load at 0x%x" a;
  if a < globals_base || a >= st.mem_bytes then trap "load out of bounds: 0x%x" a;
  word st (a lsr 2)

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
let bin2 d a b (f : int -> int -> int) =
  match (opnd a, opnd b) with
  | T a, T b -> fun tm -> tm.(d) <- f tm.(a) tm.(b)
  | T a, C c -> fun tm -> tm.(d) <- f tm.(a) c
  | C c, T b -> fun tm -> tm.(d) <- f c tm.(b)
  | C c, C c' -> fun tm -> tm.(d) <- f c c'

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
    let body = b.body in
    for k = 0 to Array.length body - 1 do
      tick st;
      (Array.unsafe_get body k) tm
    done;
    tick st;
    i := b.term tm
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

let compile_instr st ~global_addr ~callee f : Ir.instr -> int array -> unit =
  let fname = f.ir.Ir.name in
  function
  | Ir.Bin (op, d, a, b) -> bin2 d a b (binop fname op)
  | Ir.Cmp (rel, d, a, b) ->
      let r = relop rel in
      bin2 d a b (fun x y -> if r x y then 1 else 0)
  | Ir.Neg (d, a) ->
      let a = read (opnd a) in
      fun tm -> tm.(d) <- sext32 (-a tm)
  | Ir.Not (d, a) ->
      let a = read (opnd a) in
      fun tm -> tm.(d) <- lnot (a tm)
  | Ir.Copy (d, a) -> (
      match opnd a with
      | T s -> fun tm -> tm.(d) <- tm.(s)
      | C c -> fun tm -> tm.(d) <- c)
  | Ir.Load (d, a) ->
      let a = read (opnd a) in
      fun tm -> tm.(d) <- load st (a tm)
  | Ir.Store (a, v) ->
      let a = read (opnd a) and v = read (opnd v) in
      fun tm -> store st (a tm) (v tm)
  | Ir.Global_addr (d, g) -> (
      match Hashtbl.find_opt global_addr g with
      | Some a ->
          let a = sext32 a in
          fun tm -> tm.(d) <- a
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
          fun tm -> tm.(d) <- sext32 (st.sp + up)
      | None -> fun _ -> trap "unknown slot %d in %s" s fname)
  | Ir.Call (dst, name, args) -> (
      let args = Array.of_list (List.map (fun a -> read (opnd a)) args) in
      let call = call_site st (callee name) (Array.length args) in
      let eval tm = call (Array.map (fun a -> a tm) args) in
      match dst with
      | Some d -> fun tm -> tm.(d) <- eval tm
      | None -> fun tm -> ignore (eval tm))

(* Count the traversal of successor [pos] and go to block [i]; an
   unknown label ([i] < 0) raises [Not_found], as [Ir.find_block] did. *)
let[@inline] take edges pos i =
  Array.unsafe_set edges pos (Array.unsafe_get edges pos + 1);
  if i < 0 then raise Not_found;
  i

let compile_term st ~index ~succs ~edges : Ir.terminator -> int array -> int =
  let target pos =
    Option.value (Hashtbl.find_opt index succs.(pos)) ~default:(-1)
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
      fun _ -> take edges 0 i
  | Ir.Cbr (rel, x, y, _, _) ->
      let x = read (opnd x) and y = read (opnd y) and r = relop rel in
      let i1 = target 0 and i2 = target 1 in
      fun tm -> if r (x tm) (y tm) then take edges 0 i1 else take edges 1 i2
  | Ir.Cbr_nz (x, _, _) ->
      let x = read (opnd x) in
      let i1 = target 0 and i2 = target 1 in
      fun tm -> if x tm <> 0 then take edges 0 i1 else take edges 1 i2

let compile_fn st ~global_addr ~callee f =
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
           {
             label = ib.Ir.label;
             hits = 0;
             body =
               Array.of_list
                 (List.map (compile_instr st ~global_addr ~callee f) ib.Ir.instrs);
             term = compile_term st ~index ~succs ~edges ib.Ir.term;
             succs;
             edges;
           })
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
      (* A fuel beyond [max_int] steps can never run out. *)
      fuel = Int64.to_int (Int64.max (-1L) (Int64.min fuel (Int64.of_int max_int)));
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
