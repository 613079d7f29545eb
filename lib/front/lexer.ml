type token =
  | NUM of int32
  | IDENT of string
  | KW_INT | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE | KW_GLOBAL
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | LTLT | GTGT
  | EQ
  | EQEQ | NEQ | LT | LE | GT | GE
  | AMPAMP | PIPEPIPE
  | EOF
[@@deriving eq]

exception Error of string * Ast.pos

let keywords =
  [
    ("int", KW_INT); ("if", KW_IF); ("else", KW_ELSE); ("while", KW_WHILE);
    ("for", KW_FOR); ("return", KW_RETURN); ("break", KW_BREAK);
    ("continue", KW_CONTINUE); ("global", KW_GLOBAL);
  ]

let describe tok =
  let text =
    match tok with
    | NUM n -> Int32.to_string n
    | IDENT name -> name
    | EOF -> ""
    | KW_INT -> "int" | KW_IF -> "if" | KW_ELSE -> "else"
    | KW_WHILE -> "while" | KW_FOR -> "for" | KW_RETURN -> "return"
    | KW_BREAK -> "break" | KW_CONTINUE -> "continue" | KW_GLOBAL -> "global"
    | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
    | LBRACKET -> "[" | RBRACKET -> "]" | SEMI -> ";" | COMMA -> ","
    | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
    | PERCENT -> "%" | AMP -> "&" | PIPE -> "|" | CARET -> "^"
    | TILDE -> "~" | BANG -> "!" | LTLT -> "<<" | GTGT -> ">>" | EQ -> "="
    | EQEQ -> "==" | NEQ -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">"
    | GE -> ">=" | AMPAMP -> "&&" | PIPEPIPE -> "||"
  in
  match tok with
  | NUM _ -> "number " ^ text
  | IDENT _ -> Printf.sprintf "identifier '%s'" text
  | EOF -> "end of input"
  | _ -> Printf.sprintf "'%s'" text

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let here st = { Ast.line = st.line; col = st.col }
let error st fmt = Format.kasprintf (fun m -> raise (Error (m, here st))) fmt
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match (peek st, peek2 st) with
  | Some (' ' | '\t' | '\r' | '\n'), _ ->
      advance st;
      skip_trivia st
  | Some '/', Some '/' ->
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_trivia st
  | Some '/', Some '*' ->
      advance st;
      advance st;
      let rec close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | Some _, _ ->
            advance st;
            close ()
        | None, _ -> error st "unterminated block comment"
      in
      close ();
      skip_trivia st
  | _ -> ()

let lex_number st =
  let start = st.pos in
  let hex =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  if hex then begin
    advance st;
    advance st;
    while
      match peek st with
      | Some c ->
          is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
      | None -> false
    do
      advance st
    done
  end
  else
    while match peek st with Some c -> is_digit c | None -> false do
      advance st
    done;
  let text = String.sub st.src start (st.pos - start) in
  match Int32.of_string_opt text with
  | Some v -> NUM v
  | None -> error st "number out of 32-bit range: %s" text

let lex_char st =
  advance st (* opening quote *);
  let code =
    match peek st with
    | Some '\\' -> (
        advance st;
        let c =
          match peek st with
          | Some 'n' -> 10
          | Some 't' -> 9
          | Some '\\' -> 92
          | Some '\'' -> 39
          | Some '0' -> 0
          | Some c -> error st "unknown escape \\%c" c
          | None -> error st "unterminated character literal"
        in
        advance st;
        c)
    | Some c ->
        advance st;
        Char.code c
    | None -> error st "unterminated character literal"
  in
  (match peek st with
  | Some '\'' -> advance st
  | _ -> error st "unterminated character literal");
  NUM (Int32.of_int code)

let lex_ident st =
  let start = st.pos in
  while match peek st with Some c -> is_ident_char c | None -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match List.assoc_opt text keywords with Some kw -> kw | None -> IDENT text

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let toks = ref [] in
  let push tok pos = toks := (tok, pos) :: !toks in
  let two tok =
    advance st;
    advance st;
    tok
  in
  let one tok =
    advance st;
    tok
  in
  let rec loop () =
    skip_trivia st;
    let pos = here st in
    match peek st with
    | None -> push EOF pos
    | Some c ->
        let tok =
          match (c, peek2 st) with
          | '&', Some '&' -> two AMPAMP
          | '|', Some '|' -> two PIPEPIPE
          | '<', Some '<' -> two LTLT
          | '>', Some '>' -> two GTGT
          | '<', Some '=' -> two LE
          | '>', Some '=' -> two GE
          | '=', Some '=' -> two EQEQ
          | '!', Some '=' -> two NEQ
          | '(', _ -> one LPAREN
          | ')', _ -> one RPAREN
          | '{', _ -> one LBRACE
          | '}', _ -> one RBRACE
          | '[', _ -> one LBRACKET
          | ']', _ -> one RBRACKET
          | ';', _ -> one SEMI
          | ',', _ -> one COMMA
          | '+', _ -> one PLUS
          | '-', _ -> one MINUS
          | '*', _ -> one STAR
          | '/', _ -> one SLASH
          | '%', _ -> one PERCENT
          | '&', _ -> one AMP
          | '|', _ -> one PIPE
          | '^', _ -> one CARET
          | '~', _ -> one TILDE
          | '!', _ -> one BANG
          | '=', _ -> one EQ
          | '<', _ -> one LT
          | '>', _ -> one GT
          | '\'', _ -> lex_char st
          | c, _ when is_digit c -> lex_number st
          | c, _ when is_ident_start c -> lex_ident st
          | c, _ -> error st "unexpected character %C" c
        in
        push tok pos;
        if not (equal_token tok EOF) then loop ()
  in
  loop ();
  List.rev !toks
