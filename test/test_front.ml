(* End-to-end frontend tests: MiniC source -> IR -> reference interpreter. *)

let run ?(args = []) src =
  let m = Minic.compile_exn src in
  Interp.run m ~entry:"main" ~args

let ret ?(args = []) src = (run ~args src).Interp.ret
let out ?(args = []) src = (run ~args src).Interp.output

let check_ret msg expected ?(args = []) src =
  Alcotest.(check int32) msg expected (ret ~args src)

let check_error msg fragment src =
  match Minic.compile src with
  | Ok _ -> Alcotest.fail (msg ^ ": expected a frontend error")
  | Error e ->
      let contains s sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
        in
        at 0
      in
      if not (contains e.message fragment) then
        Alcotest.fail
          (Printf.sprintf "%s: error %S does not mention %S" msg e.message
             fragment)

(* ---------------- expressions and statements ---------------- *)

let test_arith () =
  check_ret "add" 7l "int main() { return 3 + 4; }";
  check_ret "precedence" 14l "int main() { return 2 + 3 * 4; }";
  check_ret "parens" 20l "int main() { return (2 + 3) * 4; }";
  check_ret "sub assoc" (-4l) "int main() { return 1 - 2 - 3; }";
  check_ret "div" 3l "int main() { return 10 / 3; }";
  check_ret "rem" 1l "int main() { return 10 % 3; }";
  check_ret "neg div" (-3l) "int main() { return -10 / 3; }";
  check_ret "neg rem" (-1l) "int main() { return -10 % 3; }";
  check_ret "unary minus" (-5l) "int main() { return -5; }";
  check_ret "bnot" (-1l) "int main() { return ~0; }";
  check_ret "lnot true" 0l "int main() { return !1; }";
  check_ret "lnot false" 1l "int main() { return !0; }"

let test_bitwise () =
  check_ret "and" 8l "int main() { return 12 & 10; }";
  check_ret "or" 14l "int main() { return 12 | 10; }";
  check_ret "xor" 6l "int main() { return 12 ^ 10; }";
  check_ret "shl" 40l "int main() { return 5 << 3; }";
  check_ret "sar" (-2l) "int main() { return -8 >> 2; }";
  check_ret "sar positive" 2l "int main() { return 8 >> 2; }"

let test_comparisons () =
  check_ret "lt true" 1l "int main() { return 2 < 3; }";
  check_ret "lt false" 0l "int main() { return 3 < 2; }";
  check_ret "le" 1l "int main() { return 3 <= 3; }";
  check_ret "gt" 1l "int main() { return 4 > 3; }";
  check_ret "ge" 0l "int main() { return 2 >= 3; }";
  check_ret "eq" 1l "int main() { return 5 == 5; }";
  check_ret "ne" 1l "int main() { return 5 != 4; }";
  check_ret "signed compare" 1l "int main() { return -1 < 0; }"

let test_wraparound () =
  check_ret "int32 wrap add" Int32.min_int
    "int main() { return 2147483647 + 1; }";
  check_ret "mul wrap" (Int32.mul 100000l 100000l)
    "int main() { return 100000 * 100000; }"

let test_short_circuit () =
  (* The right operand must not run when the left decides: a side
     effecting call would change the output. *)
  let src =
    {|
    global int hits;
    int bump() { hits = hits + 1; return 1; }
    int main() {
      int a = 0 && bump();
      int b = 1 || bump();
      print_int(hits);
      return a + b;
    }
    |}
  in
  Alcotest.(check string) "no side effects" "0\n" (out src);
  check_ret "values" 1l src;
  check_ret "and both" 1l "int main() { return 2 && 3; }";
  check_ret "or second" 1l "int main() { return 0 || 7; }";
  check_ret "or both zero" 0l "int main() { return 0 || 0; }"

let test_if_else () =
  check_ret "then" 1l "int main() { if (5 > 3) return 1; return 2; }";
  check_ret "else" 2l
    "int main() { if (5 < 3) return 1; else return 2; }";
  check_ret "dangling else" 3l
    "int main() { if (1) if (0) return 2; else return 3; return 4; }";
  check_ret "nested" 42l
    {|
    int main() {
      int x = 10;
      if (x > 5) { if (x > 8) return 42; else return 1; }
      return 0;
    }
    |}

let test_loops () =
  check_ret "while sum" 55l
    {|
    int main() {
      int i = 1; int sum = 0;
      while (i <= 10) { sum = sum + i; i = i + 1; }
      return sum;
    }
    |};
  check_ret "for sum" 55l
    {|
    int main() {
      int sum = 0;
      for (int i = 1; i <= 10; i = i + 1) sum = sum + i;
      return sum;
    }
    |};
  check_ret "break" 5l
    {|
    int main() {
      int i = 0;
      while (1) { if (i == 5) break; i = i + 1; }
      return i;
    }
    |};
  check_ret "continue" 25l
    {|
    int main() {
      int sum = 0;
      for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) continue;
        sum = sum + i;
      }
      return sum;
    }
    |};
  check_ret "nested loops" 100l
    {|
    int main() {
      int c = 0;
      for (int i = 0; i < 10; i = i + 1)
        for (int j = 0; j < 10; j = j + 1)
          c = c + 1;
      return c;
    }
    |}

let test_functions () =
  check_ret "call" 7l
    "int add(int a, int b) { return a + b; } int main() { return add(3, 4); }";
  check_ret "recursion fib" 55l
    {|
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() { return fib(10); }
    |};
  check_ret "mutual recursion" 1l
    {|
    int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
    int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
    int main() { return is_even(10); }
    |};
  check_ret "implicit return zero" 0l "int main() { int x = 5; x = x + 1; }"

let test_arrays () =
  check_ret "local array" 6l
    {|
    int main() {
      int a[3];
      a[0] = 1; a[1] = 2; a[2] = 3;
      return a[0] + a[1] + a[2];
    }
    |};
  check_ret "global array" 10l
    {|
    global int a[4];
    int main() {
      for (int i = 0; i < 4; i = i + 1) a[i] = i + 1;
      return a[0] + a[1] + a[2] + a[3];
    }
    |};
  check_ret "global init" 60l
    {|
    global int table[4] = {10, 20, 30};
    int main() { return table[0] + table[1] + table[2] + table[3]; }
    |};
  check_ret "global scalar" 5l
    "global int g; int main() { g = 5; return g; }";
  check_ret "array aliasing across calls" 99l
    {|
    global int buf[8];
    int set(int i, int v) { buf[i] = v; return 0; }
    int main() { set(3, 99); return buf[3]; }
    |}

let test_scoping () =
  check_ret "shadowing" 1l
    {|
    int main() {
      int x = 1;
      { int x = 2; x = x + 1; }
      return x;
    }
    |};
  check_ret "for scope" 10l
    {|
    int main() {
      int i = 10;
      for (int i = 0; i < 3; i = i + 1) { }
      return i;
    }
    |}

let test_builtins () =
  Alcotest.(check string) "print_int" "42\n-7\n"
    (out "int main() { print_int(42); print_int(-7); return 0; }");
  Alcotest.(check string) "put_char" "Hi"
    (out "int main() { put_char('H'); put_char('i'); return 0; }");
  check_ret "exit" 3l "int main() { exit(3); return 0; }"

let test_args () =
  check_ret "main args" 30l ~args:[ 10l; 20l ]
    "int main(int a, int b) { return a + b; }"

let test_char_literals () =
  check_ret "char" 65l "int main() { return 'A'; }";
  check_ret "newline escape" 10l "int main() { return '\\n'; }"

let test_comments () =
  check_ret "comments" 3l
    {|
    // line comment
    int main() { /* block
                    comment */ return 3; }
    |}

(* ---------------- traps ---------------- *)

let check_traps msg src =
  match run src with
  | exception Interp.Trap _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected a trap")

let test_traps () =
  check_traps "div by zero" "int main() { int z = 0; return 1 / z; }";
  check_traps "rem by zero" "int main() { int z = 0; return 1 % z; }";
  check_traps "oob store"
    "int main() { int a[2]; a[-100000000] = 1; return 0; }";
  check_traps "stack overflow" "int f(int n) { return f(n + 1); } int main() { return f(0); }"

let test_fuel () =
  let m = Minic.compile_exn "int main() { while (1) { } return 0; }" in
  match Interp.run ~fuel:1000L m ~entry:"main" ~args:[] with
  | exception Interp.Trap _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* Exact trap messages and edge semantics of the interpreter. *)

let trap_msg ?fuel ?(args = []) m =
  match Interp.run ?fuel m ~entry:"main" ~args with
  | exception Interp.Trap msg -> msg
  | _ -> Alcotest.fail "expected a trap"

let check_trap msg expected ?fuel ?args m =
  Alcotest.(check string) msg expected (trap_msg ?fuel ?args m)

let test_fuel_exact () =
  let spin = Minic.compile_exn "int main() { while (1) { } return 0; }" in
  check_trap "fuel message" "fuel exhausted after 1001 steps" ~fuel:1000L spin;
  let sum =
    Minic.compile_exn
      "int main(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } \
       return s; }"
  in
  let r = Interp.run sum ~entry:"main" ~args:[ 6l ] in
  let r' = Interp.run ~fuel:Int64.max_int sum ~entry:"main" ~args:[ 6l ] in
  Alcotest.(check int32) "max fuel runs" 21l r'.Interp.ret;
  Alcotest.(check int64) "max fuel: same steps" r.Interp.steps r'.Interp.steps

let test_division_traps () =
  let m = Minic.compile_exn "int main(int a, int b) { return a / b; }" in
  check_trap "x/0" "division error in main (7 div 0)" ~args:[ 7l; 0l ] m;
  check_trap "INT_MIN/-1" "division error in main (-2147483648 div -1)"
    ~args:[ Int32.min_int; -1l ] m;
  let m = Minic.compile_exn "int main(int a, int b) { return a % b; }" in
  check_trap "x%0" "division error in main (-5 rem 0)" ~args:[ -5l; 0l ] m;
  check_trap "INT_MIN%-1" "division error in main (-2147483648 rem -1)"
    ~args:[ Int32.min_int; -1l ] m

(* Shift counts are masked to 5 bits; the count comes from an argument
   so constant folding cannot decide it. *)
let test_shift_masking () =
  let shl = Minic.compile_exn "int main(int a, int n) { return a << n; }" in
  let sar = Minic.compile_exn "int main(int a, int n) { return a >> n; }" in
  List.iter
    (fun (n, masked) ->
      let ret m a =
        (Interp.run m ~entry:"main" ~args:[ a; n ]).Interp.ret
      in
      Alcotest.(check int32)
        (Printf.sprintf "3 << %ld" n)
        (Int32.shift_left 3l masked) (ret shl 3l);
      Alcotest.(check int32)
        (Printf.sprintf "-256 >> %ld" n)
        (Int32.shift_right (-256l) masked)
        (ret sar (-256l)))
    [ (32l, 0); (33l, 1); (-1l, 31) ]

let test_call_depth () =
  check_trap "depth" "call stack overflow in f"
    (Minic.compile_exn
       "int f(int n) { return f(n + 1); } int main() { return f(0); }")

(* Hand-built modules: the frontend rejects these calls. *)
let call_module ?(callee = []) name nargs =
  let b = Builder.create ~name:"main" ~n_params:0 in
  Builder.emit b (Ir.Call (None, name, List.init nargs (fun i -> Ir.Const (Int32.of_int i))));
  Builder.terminate b (Ir.Ret (Some (Ir.Const 0l)));
  { Ir.funcs = Builder.finish b :: callee; globals = [] }

let test_call_traps () =
  check_trap "unknown builtin" "unknown builtin nope/1" (call_module "nope" 1);
  check_trap "builtin arity" "unknown builtin print_int/2"
    (call_module "print_int" 2);
  let f =
    let b = Builder.create ~name:"f" ~n_params:1 in
    Builder.terminate b (Ir.Ret (Some (Ir.Temp 0)));
    Builder.finish b
  in
  check_trap "arity" "f called with 2 args (expected 1)"
    (call_module ~callee:[ f ] "f" 2)

let test_exit_counts () =
  let r =
    run
      {|
      int main() {
        for (int i = 0; i < 10; i = i + 1) {
          print_int(i);
          if (i == 2) exit(40 + i);
        }
        return 0;
      }
      |}
  in
  Alcotest.(check int32) "exit code" 42l r.Interp.ret;
  Alcotest.(check string) "output so far" "0\n1\n2\n" r.Interp.output;
  let calls name =
    Option.value (Hashtbl.find_opt r.Interp.counts.calls name) ~default:0L
  in
  Alcotest.(check (list int64)) "calls so far" [ 1L; 3L; 1L ]
    (List.map calls [ "main"; "print_int"; "exit" ]);
  Alcotest.(check bool) "blocks counted" true
    (Hashtbl.fold (fun _ v acc -> acc || v = 3L) r.Interp.counts.blocks false);
  Alcotest.(check bool) "edges counted" true
    (Hashtbl.length r.Interp.counts.edges > 0)

let edge_operands = [ 0l; 1l; -1l; Int32.min_int; Int32.max_int ]

let binops = Ir.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]
let relops = Ir.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* main(a, b) computing [body a b] into a fresh temp and returning it. *)
let op_module body =
  let b = Builder.create ~name:"main" ~n_params:2 in
  let t = Builder.fresh_temp b in
  body b t (Ir.Temp 0) (Ir.Temp 1);
  Builder.terminate b (Ir.Ret (Some (Ir.Temp t)));
  { Ir.funcs = [ Builder.finish b ]; globals = [] }

let test_op_table () =
  List.iter
    (fun op ->
      let m = op_module (fun b t x y -> Builder.emit b (Ir.Bin (op, t, x, y))) in
      List.iter
        (fun a ->
          List.iter
            (fun c ->
              let what = Printf.sprintf "%ld %s %ld" a (Ir.binop_name op) c in
              match (Ir.eval_binop op a c, op) with
              | Some v, _ ->
                  Alcotest.(check int32) what v
                    (Interp.run m ~entry:"main" ~args:[ a; c ]).Interp.ret
              | None, (Ir.Div | Ir.Rem) ->
                  check_trap what
                    (Printf.sprintf "division error in main (%s)" what)
                    ~args:[ a; c ] m
              | None, _ ->
                  Alcotest.(check int32) what
                    (Option.get (Ir.eval_binop op a (Int32.logand c 31l)))
                    (Interp.run m ~entry:"main" ~args:[ a; c ]).Interp.ret)
            edge_operands)
        edge_operands)
    binops;
  List.iter
    (fun rel ->
      let cmp = op_module (fun b t x y -> Builder.emit b (Ir.Cmp (rel, t, x, y))) in
      let cbr =
        op_module (fun b t x y ->
            let l1 = Builder.fresh_label b and l2 = Builder.fresh_label b in
            let join = Builder.fresh_label b in
            Builder.terminate b (Ir.Cbr (rel, x, y, l1, l2));
            List.iter
              (fun (l, v) ->
                Builder.start_block b l;
                Builder.emit b (Ir.Copy (t, Ir.Const v));
                Builder.terminate b (Ir.Jmp join))
              [ (l1, 1l); (l2, 0l) ];
            Builder.start_block b join)
      in
      List.iter
        (fun a ->
          List.iter
            (fun c ->
              let what = Printf.sprintf "%ld %s %ld" a (Ir.relop_name rel) c in
              let expected = if Ir.eval_relop rel a c then 1l else 0l in
              let ret m = (Interp.run m ~entry:"main" ~args:[ a; c ]).Interp.ret in
              Alcotest.(check int32) (what ^ " (cmp)") expected (ret cmp);
              Alcotest.(check int32) (what ^ " (cbr)") expected (ret cbr))
            edge_operands)
        edge_operands)
    relops

(* ---------------- frontend errors ---------------- *)

let test_sema_errors () =
  check_error "undeclared" "undeclared" "int main() { return x; }";
  check_error "redeclaration" "redeclaration"
    "int main() { int x = 1; int x = 2; return x; }";
  check_error "array as scalar" "used as a scalar"
    "int main() { int a[2]; return a; }";
  check_error "scalar indexed" "cannot be indexed"
    "int main() { int x = 1; return x[0]; }";
  check_error "unknown function" "undeclared function"
    "int main() { return nope(1); }";
  check_error "arity" "expects 1 argument"
    "int main() { print_int(1, 2); return 0; }";
  check_error "break outside loop" "outside a loop"
    "int main() { break; return 0; }";
  check_error "duplicate function" "duplicate"
    "int f() { return 1; } int f() { return 2; } int main() { return 0; }";
  check_error "builtin shadow" "shadows a builtin"
    "int print_int(int x) { return x; } int main() { return 0; }";
  check_error "scope leak" "undeclared"
    "int main() { if (1) int x = 1; return x; }";
  check_error "duplicate param" "duplicate parameter"
    "int f(int a, int a) { return a; } int main() { return 0; }"

let test_parse_errors () =
  check_error "missing semi" "expected" "int main() { return 1 }";
  check_error "missing paren" "expected" "int main( { return 1; }";
  check_error "bad toplevel" "expected declaration" "return 1;";
  check_error "bad char" "unexpected character" "int main() { return 1 @ 2; }"

(* ---------------- interp counts (profiling oracle) ---------------- *)

let test_block_counts () =
  let m =
    Minic.compile_exn
      {|
      int main() {
        int sum = 0;
        for (int i = 0; i < 7; i = i + 1) sum = sum + i;
        return sum;
      }
      |}
  in
  let r = Interp.run m ~entry:"main" ~args:[] in
  (* The loop body must execute exactly 7 times; find its count. *)
  let body_count =
    Hashtbl.fold
      (fun (_, _) v acc -> if v = 7L then acc + 1 else acc)
      r.Interp.counts.blocks 0
  in
  Alcotest.(check bool) "some block ran exactly 7 times" true (body_count >= 1);
  (* Edge counts are conserved: for the loop-condition block, in = out. *)
  let edges = r.Interp.counts.edges in
  let into = Hashtbl.create 8 and outof = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (f, s, d) v ->
      Hashtbl.replace into (f, d)
        (Int64.add v (Option.value (Hashtbl.find_opt into (f, d)) ~default:0L));
      Hashtbl.replace outof (f, s)
        (Int64.add v (Option.value (Hashtbl.find_opt outof (f, s)) ~default:0L)))
    edges;
  Hashtbl.iter
    (fun (f, l) blocks_count ->
      let inflow = Option.value (Hashtbl.find_opt into (f, l)) ~default:0L in
      let is_entry = l = 0 in
      if not is_entry then
        Alcotest.(check int64)
          (Printf.sprintf "inflow of L%d equals executions" l)
          blocks_count inflow)
    r.Interp.counts.blocks

let suite =
  [
    ( "front.exec",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "bitwise" `Quick test_bitwise;
        Alcotest.test_case "comparisons" `Quick test_comparisons;
        Alcotest.test_case "int32 wraparound" `Quick test_wraparound;
        Alcotest.test_case "short circuit" `Quick test_short_circuit;
        Alcotest.test_case "if/else" `Quick test_if_else;
        Alcotest.test_case "loops" `Quick test_loops;
        Alcotest.test_case "functions" `Quick test_functions;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "scoping" `Quick test_scoping;
        Alcotest.test_case "builtins" `Quick test_builtins;
        Alcotest.test_case "main args" `Quick test_args;
        Alcotest.test_case "char literals" `Quick test_char_literals;
        Alcotest.test_case "comments" `Quick test_comments;
      ] );
    ( "front.errors",
      [
        Alcotest.test_case "traps" `Quick test_traps;
        Alcotest.test_case "fuel" `Quick test_fuel;
        Alcotest.test_case "sema errors" `Quick test_sema_errors;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
      ] );
    ( "front.profile-oracle",
      [ Alcotest.test_case "block/edge counts" `Quick test_block_counts ] );
    ( "front.interp",
      [
        Alcotest.test_case "fuel exact" `Quick test_fuel_exact;
        Alcotest.test_case "division traps" `Quick test_division_traps;
        Alcotest.test_case "shift masking" `Quick test_shift_masking;
        Alcotest.test_case "call depth" `Quick test_call_depth;
        Alcotest.test_case "call traps" `Quick test_call_traps;
        Alcotest.test_case "exit keeps counts" `Quick test_exit_counts;
        Alcotest.test_case "op table" `Quick test_op_table;
      ] );
  ]
