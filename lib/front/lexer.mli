(** Hand-written lexer for MiniC. *)

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
  | EQ  (** [=] *)
  | EQEQ | NEQ | LT | LE | GT | GE
  | AMPAMP | PIPEPIPE
  | EOF
[@@deriving eq]

val describe : token -> string
(** The token as error messages name it: its source text in quotes
    ([';'], ['int']), [identifier 'x'], [number 3] or [end of input]. *)

exception Error of string * Ast.pos
(** Lexical error with position. *)

val tokenize : string -> (token * Ast.pos) list
(** Whole-input tokenization.  Comments ([// ...] and [/* ... */]) and
    whitespace are skipped; character literals ['c'] (with [\n], [\t],
    [\\], [\'], [\0] escapes) lex as their code point, as NUM. *)
