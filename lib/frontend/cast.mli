(** Abstract syntax of the C subset: one function containing perfectly or
    imperfectly nested counted [for] loops over array assignments. *)

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Index of string * expr list  (** [A\[i\]\[k\]] *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * expr list  (** [quant(x)] *)

and binop = Add | Sub | Mul | Div

type stmt =
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** [for (int v = lo; v < hi; v++) body] — [hi] exclusive *)
  | Assign of { lhs : string * expr list; op : [ `Set | `AddSet ]; rhs : expr }
      (** [X\[..\] = rhs] or [X\[..\] += rhs] *)

type param =
  | Int_param of string
  | Double_param of string
  | Array_param of { name : string; dims : expr list }

type func = { fname : string; params : param list; body : stmt list }

val expr_to_string : expr -> string
