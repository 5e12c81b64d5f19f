type expr =
  | Int of int
  | Float of float
  | Var of string
  | Index of string * expr list
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * expr list

and binop = Add | Sub | Mul | Div

type stmt =
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
  | Assign of { lhs : string * expr list; op : [ `Set | `AddSet ]; rhs : expr }

type param =
  | Int_param of string
  | Double_param of string
  | Array_param of { name : string; dims : expr list }

type func = { fname : string; params : param list; body : stmt list }

let binop_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec expr_to_string = function
  | Int v -> string_of_int v
  | Float f -> Printf.sprintf "%g" f
  | Var s -> s
  | Index (a, idx) ->
      a ^ String.concat "" (List.map (fun e -> "[" ^ expr_to_string e ^ "]") idx)
  | Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op)
        (expr_to_string b)
  | Neg e -> "-" ^ expr_to_string e
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_string args))
