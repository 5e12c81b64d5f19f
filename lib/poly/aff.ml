type t =
  | Const of int
  | Var of string
  | Param of string
  | Add of t * t
  | Sub of t * t
  | Mul of int * t
  | Fdiv of t * int
  | Mod of t * int

let const n = Const n
let var s = Var s
let param s = Param s

let add a b =
  match (a, b) with
  | Const 0, e | e, Const 0 -> e
  | Const x, Const y -> Const (x + y)
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | e, Const 0 -> e
  | Const x, Const y -> Const (x - y)
  | _ -> Sub (a, b)

let mul k e =
  match (k, e) with
  | 0, _ -> Const 0
  | 1, e -> e
  | k, Const n -> Const (k * n)
  | k, Mul (k', e) -> Mul (k * k', e)
  | _ -> Mul (k, e)

let neg e = mul (-1) e

let fdiv e d =
  if d <= 0 then invalid_arg "Aff.fdiv: divisor must be positive"
  else
    match e with
    | Const n -> Const (Ints.fdiv n d)
    | e when d = 1 -> e
    | Fdiv (e', d') -> Fdiv (e', d * d')
        (* floor(floor(x/a)/b) = floor(x/(a*b)) for positive a, b *)
    | _ -> Fdiv (e, d)

let fmod e d =
  if d <= 0 then invalid_arg "Aff.fmod: divisor must be positive"
  else
    match e with
    | Const n -> Const (Ints.fmod n d)
    | _ when d = 1 -> Const 0
    | _ -> Mod (e, d)

let sum = List.fold_left add (Const 0)

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Var x, Var y | Param x, Param y -> String.equal x y
  | Add (a1, a2), Add (b1, b2) | Sub (a1, a2), Sub (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | Mul (k, a), Mul (k', b) -> k = k' && equal a b
  | Fdiv (a, d), Fdiv (b, d') | Mod (a, d), Mod (b, d') -> d = d' && equal a b
  | (Const _ | Var _ | Param _ | Add _ | Sub _ | Mul _ | Fdiv _ | Mod _), _ ->
      false

let rec subst bindings e =
  match e with
  | Var s -> ( match List.assoc_opt s bindings with Some r -> r | None -> e)
  | Const _ | Param _ -> e
  | Add (a, b) -> add (subst bindings a) (subst bindings b)
  | Sub (a, b) -> sub (subst bindings a) (subst bindings b)
  | Mul (k, a) -> mul k (subst bindings a)
  | Fdiv (a, d) -> fdiv (subst bindings a) d
  | Mod (a, d) -> fmod (subst bindings a) d

let collect pick e =
  let rec go acc = function
    | Const _ -> acc
    | Var s -> ( match pick with `Vars -> s :: acc | `Params -> acc)
    | Param s -> ( match pick with `Vars -> acc | `Params -> s :: acc)
    | Add (a, b) | Sub (a, b) -> go (go acc a) b
    | Mul (_, a) | Fdiv (a, _) | Mod (a, _) -> go acc a
  in
  List.sort_uniq String.compare (go [] e)

let free_vars = collect `Vars
let free_params = collect `Params

let rec eval ~vars ~params = function
  | Const n -> n
  | Var s -> vars s
  | Param s -> params s
  | Add (a, b) -> eval ~vars ~params a + eval ~vars ~params b
  | Sub (a, b) -> eval ~vars ~params a - eval ~vars ~params b
  | Mul (k, a) -> k * eval ~vars ~params a
  | Fdiv (a, d) -> Ints.fdiv (eval ~vars ~params a) d
  | Mod (a, d) -> Ints.fmod (eval ~vars ~params a) d

type leaf = Slot of int | Value of int | Dynamic of (int array -> int)

let evaluator = function
  | Value n -> fun _ -> n
  | Slot i -> fun env -> env.(i)
  | Dynamic f -> f

(* The exponent of a positive power of two, else -1. *)
let log2 d =
  let rec go n s = if n = 1 then s else go (n lsr 1) (s + 1) in
  if Ints.pow2 d then go d 0 else -1

(* Lowering folds constants and fuses the shapes generated code is made
   of (a slot plus or times a constant, a slot's floor or modulo) into one
   closure each. Floor and modulo by a power of two need no division: an
   arithmetic shift floors, and the low bits are the non-negative
   remainder. Every other node keeps [eval]'s operator and operand order,
   so a [Dynamic] leaf that raises is reached exactly when [eval] would
   reach the name it stands for. *)
let lower ~vars ~params e =
  let rec go = function
    | Const n -> Value n
    | Var s -> vars s
    | Param s -> params s
    | Add (a, b) -> (
        match (go a, go b) with
        | Value x, Value y -> Value (x + y)
        | Slot i, Value y -> Dynamic (fun env -> env.(i) + y)
        | Value x, Slot j -> Dynamic (fun env -> x + env.(j))
        | Slot i, Slot j -> Dynamic (fun env -> env.(i) + env.(j))
        | a, b ->
            let fa = evaluator a and fb = evaluator b in
            Dynamic (fun env -> fa env + fb env))
    | Sub (a, b) -> (
        match (go a, go b) with
        | Value x, Value y -> Value (x - y)
        | Slot i, Value y -> Dynamic (fun env -> env.(i) - y)
        | Slot i, Slot j -> Dynamic (fun env -> env.(i) - env.(j))
        | a, b ->
            let fa = evaluator a and fb = evaluator b in
            Dynamic (fun env -> fa env - fb env))
    | Mul (k, a) -> (
        match go a with
        | Value x -> Value (k * x)
        | Slot i -> Dynamic (fun env -> k * env.(i))
        | a ->
            let fa = evaluator a in
            Dynamic (fun env -> k * fa env))
    | Fdiv (a, d) -> (
        match (go a, log2 d) with
        | Value x, _ when d <> 0 -> Value (Ints.fdiv x d)
        | Slot i, -1 -> Dynamic (fun env -> Ints.fdiv env.(i) d)
        | Slot i, s -> Dynamic (fun env -> env.(i) asr s)
        | a, -1 ->
            let fa = evaluator a in
            Dynamic (fun env -> Ints.fdiv (fa env) d)
        | a, s ->
            let fa = evaluator a in
            Dynamic (fun env -> fa env asr s))
    | Mod (a, d) -> (
        let m = d - 1 in
        match (go a, log2 d) with
        | Value x, _ when d <> 0 -> Value (Ints.fmod x d)
        | Slot i, -1 -> Dynamic (fun env -> Ints.fmod env.(i) d)
        | Slot i, _ -> Dynamic (fun env -> env.(i) land m)
        | a, -1 ->
            let fa = evaluator a in
            Dynamic (fun env -> Ints.fmod (fa env) d)
        | a, _ ->
            let fa = evaluator a in
            Dynamic (fun env -> fa env land m))
  in
  evaluator (go e)

let rec render ~div e =
  (* [atom] parenthesizes sums appearing where a tighter-binding position is
     expected; multiplication by a constant never needs parentheses there. *)
  let atom e =
    match e with
    | Const _ | Var _ | Param _ | Fdiv _ | Mod _ | Mul _ -> render ~div e
    | Add _ | Sub _ -> "(" ^ render ~div e ^ ")"
  in
  let factor e =
    match e with
    | Const _ | Var _ | Param _ | Fdiv _ | Mod _ -> render ~div e
    | Add _ | Sub _ | Mul _ -> "(" ^ render ~div e ^ ")"
  in
  match e with
  | Const n -> string_of_int n
  | Var s | Param s -> s
  | Add (a, b) -> render ~div a ^ " + " ^ render ~div b
  | Sub (a, b) -> render ~div a ^ " - " ^ atom b
  | Mul (k, a) -> string_of_int k ^ "*" ^ factor a
  | Fdiv (a, d) -> Printf.sprintf "%s(%s, %d)" div (render ~div a) d
  | Mod (a, d) -> Printf.sprintf "%s_mod(%s, %d)" div (render ~div a) d

let to_string = render ~div:"floord"
let to_c = render ~div:"floord"
