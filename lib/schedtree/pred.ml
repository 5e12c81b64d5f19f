open Sw_poly

type rel = Eq | Le | Lt | Ge | Gt

type t = { lhs : Aff.t; rel : rel; rhs : Aff.t }

let eq lhs rhs = { lhs; rel = Eq; rhs }
let le lhs rhs = { lhs; rel = Le; rhs }
let ge lhs rhs = { lhs; rel = Ge; rhs }

let eval ~vars ~params t =
  let l = Aff.eval ~vars ~params t.lhs and r = Aff.eval ~vars ~params t.rhs in
  match t.rel with
  | Eq -> l = r
  | Le -> l <= r
  | Lt -> l < r
  | Ge -> l >= r
  | Gt -> l > r

let lower ~vars ~params t =
  let fl = Aff.lower ~vars ~params t.lhs and fr = Aff.lower ~vars ~params t.rhs in
  (* one closure per relation, each with [eval]'s operand order *)
  match t.rel with
  | Eq -> fun env -> let l = fl env and r = fr env in l = r
  | Le -> fun env -> let l = fl env and r = fr env in l <= r
  | Lt -> fun env -> let l = fl env and r = fr env in l < r
  | Ge -> fun env -> let l = fl env and r = fr env in l >= r
  | Gt -> fun env -> let l = fl env and r = fr env in l > r

let to_ineqs t =
  let d = Aff.sub t.rhs t.lhs in
  match t.rel with
  | Eq -> [ d; Aff.neg d ]
  | Le -> [ d ]
  | Lt -> [ Aff.sub d (Aff.const 1) ]
  | Ge -> [ Aff.neg d ]
  | Gt -> [ Aff.sub (Aff.neg d) (Aff.const 1) ]

let subst bindings t =
  { t with lhs = Aff.subst bindings t.lhs; rhs = Aff.subst bindings t.rhs }

let rel_to_string = function
  | Eq -> "="
  | Le -> "<="
  | Lt -> "<"
  | Ge -> ">="
  | Gt -> ">"

let to_string t =
  Printf.sprintf "%s %s %s" (Aff.to_string t.lhs) (rel_to_string t.rel)
    (Aff.to_string t.rhs)
