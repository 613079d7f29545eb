exception Error of string * Ast.pos

type state = { mutable toks : (Lexer.token * Ast.pos) list }

let peek st =
  match st.toks with
  | (tok, pos) :: _ -> (tok, pos)
  | [] -> (Lexer.EOF, { Ast.line = 0; col = 0 })

let pos_of st = snd (peek st)

let error st fmt =
  Format.kasprintf (fun m -> raise (Error (m, pos_of st))) fmt

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok what =
  let got, _ = peek st in
  if Lexer.equal_token got tok then advance st
  else error st "expected %s, found %s" what (Lexer.show_token got)

let expect_ident st =
  match peek st with
  | Lexer.IDENT name, _ ->
      advance st;
      name
  | got, _ -> error st "expected identifier, found %s" (Lexer.show_token got)

let expect_num st =
  match peek st with
  | Lexer.NUM v, _ ->
      advance st;
      v
  | got, _ -> error st "expected number, found %s" (Lexer.show_token got)

let accept st tok =
  let got, _ = peek st in
  if Lexer.equal_token got tok then begin
    advance st;
    true
  end
  else false

(* Binary operator precedence, loosest binding = level 0. *)
let binop_of_token = function
  | Lexer.PIPEPIPE -> Some (0, Ast.Lor)
  | Lexer.AMPAMP -> Some (1, Ast.Land)
  | Lexer.PIPE -> Some (2, Ast.Bor)
  | Lexer.CARET -> Some (3, Ast.Bxor)
  | Lexer.AMP -> Some (4, Ast.Band)
  | Lexer.EQEQ -> Some (5, Ast.Eq)
  | Lexer.NEQ -> Some (5, Ast.Ne)
  | Lexer.LT -> Some (6, Ast.Lt)
  | Lexer.LE -> Some (6, Ast.Le)
  | Lexer.GT -> Some (6, Ast.Gt)
  | Lexer.GE -> Some (6, Ast.Ge)
  | Lexer.LTLT -> Some (7, Ast.Shl)
  | Lexer.GTGT -> Some (7, Ast.Shr)
  | Lexer.PLUS -> Some (8, Ast.Add)
  | Lexer.MINUS -> Some (8, Ast.Sub)
  | Lexer.STAR -> Some (9, Ast.Mul)
  | Lexer.SLASH -> Some (9, Ast.Div)
  | Lexer.PERCENT -> Some (9, Ast.Rem)
  | _ -> None

let rec parse_expr_prec st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (fst (peek st)) with
    | Some (prec, op) when prec >= min_prec ->
        let pos = pos_of st in
        advance st;
        (* Left associativity: the right operand binds one level
           tighter. *)
        let rhs = parse_expr_prec st (prec + 1) in
        loop { Ast.desc = Ast.Bin (op, lhs, rhs); pos }
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  let tok, pos = peek st in
  match tok with
  | Lexer.MINUS ->
      advance st;
      { Ast.desc = Ast.Un (Ast.Neg, parse_unary st); pos }
  | Lexer.BANG ->
      advance st;
      { Ast.desc = Ast.Un (Ast.Lnot, parse_unary st); pos }
  | Lexer.TILDE ->
      advance st;
      { Ast.desc = Ast.Un (Ast.Bnot, parse_unary st); pos }
  | _ -> parse_primary st

and parse_primary st =
  let tok, pos = peek st in
  match tok with
  | Lexer.NUM v ->
      advance st;
      { Ast.desc = Ast.Num v; pos }
  | Lexer.LPAREN ->
      advance st;
      let e = parse_expr_prec st 0 in
      expect st Lexer.RPAREN ")";
      e
  | Lexer.IDENT name -> (
      advance st;
      match fst (peek st) with
      | Lexer.LPAREN ->
          advance st;
          let args =
            if accept st Lexer.RPAREN then []
            else
              let rec more acc =
                let e = parse_expr_prec st 0 in
                if accept st Lexer.COMMA then more (e :: acc)
                else begin
                  expect st Lexer.RPAREN ")";
                  List.rev (e :: acc)
                end
              in
              more []
          in
          { Ast.desc = Ast.Call (name, args); pos }
      | Lexer.LBRACKET ->
          advance st;
          let idx = parse_expr_prec st 0 in
          expect st Lexer.RBRACKET "]";
          { Ast.desc = Ast.Index (name, idx); pos }
      | _ -> { Ast.desc = Ast.Var name; pos })
  | tok -> error st "expected expression, found %s" (Lexer.show_token tok)

let parse_expression st = parse_expr_prec st 0

(* A "simple statement" is what may appear in for-headers: a declaration,
   an assignment, or an expression statement — without the trailing
   semicolon. *)
let parse_simple st =
  let tok, pos = peek st in
  match tok with
  | Lexer.KW_INT ->
      advance st;
      let name = expect_ident st in
      let size =
        if accept st Lexer.LBRACKET then begin
          let n = expect_num st in
          expect st Lexer.RBRACKET "]";
          Some (Int32.to_int n)
        end
        else None
      in
      let init =
        if accept st Lexer.EQ then Some (parse_expression st) else None
      in
      if size <> None && init <> None then
        error st "array declarations cannot have initializers";
      { Ast.sdesc = Ast.Decl (name, size, init); spos = pos }
  | Lexer.IDENT name -> (
      advance st;
      match fst (peek st) with
      | Lexer.EQ ->
          advance st;
          { Ast.sdesc = Ast.Assign (name, parse_expression st); spos = pos }
      | Lexer.LBRACKET -> (
          advance st;
          let idx = parse_expression st in
          expect st Lexer.RBRACKET "]";
          match fst (peek st) with
          | Lexer.EQ ->
              advance st;
              {
                Ast.sdesc = Ast.Assign_index (name, idx, parse_expression st);
                spos = pos;
              }
          | _ ->
              (* It was an expression after all: a[i] as a value.  Only
                 useful composed into a larger expression, which we do not
                 support at statement position; report it clearly. *)
              error st "expected '=' after index expression")
      | Lexer.LPAREN ->
          (* Function call statement: re-parse from the identifier. *)
          advance st;
          let args =
            if accept st Lexer.RPAREN then []
            else
              let rec more acc =
                let e = parse_expression st in
                if accept st Lexer.COMMA then more (e :: acc)
                else begin
                  expect st Lexer.RPAREN ")";
                  List.rev (e :: acc)
                end
              in
              more []
          in
          { Ast.sdesc = Ast.Expr { desc = Ast.Call (name, args); pos }; spos = pos }
      | tok -> error st "expected statement, found %s" (Lexer.show_token tok))
  | tok -> error st "expected statement, found %s" (Lexer.show_token tok)

let rec parse_stmt st =
  let tok, pos = peek st in
  match tok with
  | Lexer.LBRACE ->
      advance st;
      let rec items acc =
        if accept st Lexer.RBRACE then List.rev acc
        else items (parse_stmt st :: acc)
      in
      { Ast.sdesc = Ast.Block (items []); spos = pos }
  | Lexer.KW_IF ->
      advance st;
      expect st Lexer.LPAREN "(";
      let cond = parse_expression st in
      expect st Lexer.RPAREN ")";
      let then_ = parse_stmt st in
      let else_ =
        if accept st Lexer.KW_ELSE then Some (parse_stmt st) else None
      in
      { Ast.sdesc = Ast.If (cond, then_, else_); spos = pos }
  | Lexer.KW_WHILE ->
      advance st;
      expect st Lexer.LPAREN "(";
      let cond = parse_expression st in
      expect st Lexer.RPAREN ")";
      let body = parse_stmt st in
      { Ast.sdesc = Ast.While (cond, body); spos = pos }
  | Lexer.KW_FOR ->
      advance st;
      expect st Lexer.LPAREN "(";
      let init =
        if Lexer.equal_token (fst (peek st)) Lexer.SEMI then None
        else Some (parse_simple st)
      in
      expect st Lexer.SEMI ";";
      let cond =
        if Lexer.equal_token (fst (peek st)) Lexer.SEMI then None
        else Some (parse_expression st)
      in
      expect st Lexer.SEMI ";";
      let step =
        if Lexer.equal_token (fst (peek st)) Lexer.RPAREN then None
        else Some (parse_simple st)
      in
      expect st Lexer.RPAREN ")";
      let body = parse_stmt st in
      { Ast.sdesc = Ast.For (init, cond, step, body); spos = pos }
  | Lexer.KW_RETURN ->
      advance st;
      let v =
        if Lexer.equal_token (fst (peek st)) Lexer.SEMI then None
        else Some (parse_expression st)
      in
      expect st Lexer.SEMI ";";
      { Ast.sdesc = Ast.Return v; spos = pos }
  | Lexer.KW_BREAK ->
      advance st;
      expect st Lexer.SEMI ";";
      { Ast.sdesc = Ast.Break; spos = pos }
  | Lexer.KW_CONTINUE ->
      advance st;
      expect st Lexer.SEMI ";";
      { Ast.sdesc = Ast.Continue; spos = pos }
  | _ ->
      let s = parse_simple st in
      expect st Lexer.SEMI ";";
      s

let parse_global st pos =
  (* "global" already consumed. *)
  expect st Lexer.KW_INT "int";
  let name = expect_ident st in
  let size, garray =
    if accept st Lexer.LBRACKET then begin
      let n = expect_num st in
      expect st Lexer.RBRACKET "]";
      (Int32.to_int n, true)
    end
    else (1, false)
  in
  let init =
    if accept st Lexer.EQ then begin
      expect st Lexer.LBRACE "{";
      let rec more acc =
        let v = expect_num st in
        if accept st Lexer.COMMA then more (v :: acc)
        else begin
          expect st Lexer.RBRACE "}";
          List.rev (v :: acc)
        end
      in
      Some (more [])
    end
    else None
  in
  expect st Lexer.SEMI ";";
  { Ast.gname = name; gsize = size; garray; ginit = init; gpos = pos }

let parse_func st pos =
  (* "int" already consumed. *)
  let name = expect_ident st in
  expect st Lexer.LPAREN "(";
  let params =
    if accept st Lexer.RPAREN then []
    else
      let rec more acc =
        expect st Lexer.KW_INT "int";
        let p = expect_ident st in
        if accept st Lexer.COMMA then more (p :: acc)
        else begin
          expect st Lexer.RPAREN ")";
          List.rev (p :: acc)
        end
      in
      more []
  in
  expect st Lexer.LBRACE "{";
  let rec items acc =
    if accept st Lexer.RBRACE then List.rev acc
    else items (parse_stmt st :: acc)
  in
  { Ast.fname = name; fparams = params; fbody = items []; fpos = pos }

let parse src =
  let st = { toks = Lexer.tokenize src } in
  let rec toplevel globals funcs =
    let tok, pos = peek st in
    match tok with
    | Lexer.EOF -> { Ast.globals = List.rev globals; funcs = List.rev funcs }
    | Lexer.KW_GLOBAL ->
        advance st;
        toplevel (parse_global st pos :: globals) funcs
    | Lexer.KW_INT ->
        advance st;
        toplevel globals (parse_func st pos :: funcs)
    | tok -> error st "expected declaration, found %s" (Lexer.show_token tok)
  in
  toplevel [] []
