(** Recursive-descent parser for MiniC.

    Operator precedence follows C (tightest first): unary; [* / %];
    [+ -]; [<< >>]; relational; equality; [&]; [^]; [|]; [&&]; [||].
    All binary operators are left-associative. *)

exception Error of string * Ast.pos

val parse : string -> Ast.program
(** Parse a full translation unit.  Raises {!Error} or {!Lexer.Error} on
    malformed input. *)
