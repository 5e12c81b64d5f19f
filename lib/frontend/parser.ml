open Lexer

exception Parse_error of string

type state = { mutable toks : located list }

let fail (st : state) msg =
  let where =
    match st.toks with
    | { tok; line; col } :: _ ->
        Printf.sprintf "line %d, column %d: %s (found %s)" line col msg
          (token_to_string tok)
    | [] -> msg
  in
  raise (Parse_error where)

let peek st = match st.toks with { tok; _ } :: _ -> tok | [] -> EOF

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect_punct st p =
  match peek st with
  | PUNCT q when String.equal p q -> advance st
  | _ -> fail st (Printf.sprintf "expected '%s'" p)

let expect_kw st k =
  match peek st with
  | KW q when String.equal k q -> advance st
  | _ -> fail st (Printf.sprintf "expected keyword '%s'" k)

let expect_ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | _ -> fail st "expected an identifier"

(* ---- expressions (precedence climbing) ---- *)

let rec parse_expression st = parse_additive st

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PUNCT "+" ->
        advance st;
        lhs := Cast.Bin (Cast.Add, !lhs, parse_multiplicative st)
    | PUNCT "-" ->
        advance st;
        lhs := Cast.Bin (Cast.Sub, !lhs, parse_multiplicative st)
    | _ -> continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | PUNCT "*" ->
        advance st;
        lhs := Cast.Bin (Cast.Mul, !lhs, parse_unary st)
    | PUNCT "/" ->
        advance st;
        lhs := Cast.Bin (Cast.Div, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | PUNCT "-" ->
      advance st;
      Cast.Neg (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  match peek st with
  | INT v ->
      advance st;
      Cast.Int v
  | FLOAT f ->
      advance st;
      Cast.Float f
  | PUNCT "(" ->
      advance st;
      let e = parse_expression st in
      expect_punct st ")";
      e
  | IDENT name -> (
      advance st;
      match peek st with
      | PUNCT "(" ->
          advance st;
          let args = ref [] in
          if peek st <> PUNCT ")" then begin
            args := [ parse_expression st ];
            while peek st = PUNCT "," do
              advance st;
              args := parse_expression st :: !args
            done
          end;
          expect_punct st ")";
          Cast.Call (name, List.rev !args)
      | PUNCT "[" ->
          let idx = ref [] in
          while peek st = PUNCT "[" do
            advance st;
            idx := parse_expression st :: !idx;
            expect_punct st "]"
          done;
          Cast.Index (name, List.rev !idx)
      | _ -> Cast.Var name)
  | _ -> fail st "expected an expression"

(* ---- statements ---- *)

let rec parse_stmt st =
  match peek st with
  | KW "for" -> parse_for st
  | PUNCT "{" -> parse_block st
  | IDENT _ -> (
      let e = parse_postfix st in
      match e with
      | Cast.Index (name, idx) -> (
          match peek st with
          | PUNCT "=" ->
              advance st;
              let rhs = parse_expression st in
              expect_punct st ";";
              [ Cast.Assign { lhs = (name, idx); op = `Set; rhs } ]
          | PUNCT "+=" ->
              advance st;
              let rhs = parse_expression st in
              expect_punct st ";";
              [ Cast.Assign { lhs = (name, idx); op = `AddSet; rhs } ]
          | _ -> fail st "expected '=' or '+='")
      | _ -> fail st "only array assignments are supported")
  | _ -> fail st "expected a statement"

and parse_block st =
  expect_punct st "{";
  let stmts = ref [] in
  while peek st <> PUNCT "}" do
    stmts := !stmts @ parse_stmt st
  done;
  expect_punct st "}";
  !stmts

and parse_for st =
  expect_kw st "for";
  expect_punct st "(";
  (match peek st with KW "int" -> advance st | _ -> ());
  let var = expect_ident st in
  expect_punct st "=";
  let lo = parse_expression st in
  expect_punct st ";";
  let var2 = expect_ident st in
  if not (String.equal var var2) then
    fail st (Printf.sprintf "loop condition must test %s" var);
  (match peek st with
  | PUNCT "<" -> advance st
  | _ -> fail st "only '<' loop conditions are supported");
  let hi = parse_expression st in
  expect_punct st ";";
  let var3 = expect_ident st in
  if not (String.equal var var3) then
    fail st (Printf.sprintf "loop increment must update %s" var);
  expect_punct st "++";
  expect_punct st ")";
  let body = parse_stmt st in
  [ Cast.For { var; lo; hi; body } ]

(* ---- parameters and function ---- *)

let parse_param st =
  match peek st with
  | KW "int" ->
      advance st;
      Cast.Int_param (expect_ident st)
  | KW "double" -> (
      advance st;
      let name = expect_ident st in
      match peek st with
      | PUNCT "[" ->
          let dims = ref [] in
          while peek st = PUNCT "[" do
            advance st;
            dims := parse_expression st :: !dims;
            expect_punct st "]"
          done;
          Cast.Array_param { name; dims = List.rev !dims }
      | _ -> Cast.Double_param name)
  | _ -> fail st "expected a parameter declaration"

let parse_func st =
  expect_kw st "void";
  let fname = expect_ident st in
  expect_punct st "(";
  let params = ref [] in
  if peek st <> PUNCT ")" then begin
    params := [ parse_param st ];
    while peek st = PUNCT "," do
      advance st;
      params := parse_param st :: !params
    done
  end;
  expect_punct st ")";
  let body = parse_block st in
  (match peek st with
  | EOF -> ()
  | _ -> fail st "trailing input after the function body");
  { Cast.fname; params = List.rev !params; body }

let parse src =
  let st = { toks = Lexer.tokenize src } in
  parse_func st
