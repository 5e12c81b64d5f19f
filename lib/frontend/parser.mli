(** Recursive-descent parser for the C subset. *)

exception Parse_error of string

val parse : string -> Cast.func
(** Parse one function definition. Raises {!Parse_error} (or
    {!Lexer.Lex_error}) with a located message. *)
