type var = P of int | D of int | X of int

let var_rank = function P i -> (0, i) | D i -> (1, i) | X i -> (2, i)
let compare_var a b = compare (var_rank a) (var_rank b)

type t = { terms : (var * int) list; cst : int }

let zero = { terms = []; cst = 0 }
let const c = { terms = []; cst = c }
let var ?(coeff = 1) v = if coeff = 0 then zero else { terms = [ (v, coeff) ]; cst = 0 }

let rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (vx, cx) :: tx, (vy, cy) :: ty ->
      let c = compare_var vx vy in
      if c < 0 then (vx, cx) :: merge tx ys
      else if c > 0 then (vy, cy) :: merge xs ty
      else
        let s = cx + cy in
        if s = 0 then merge tx ty else (vx, s) :: merge tx ty

let of_terms l cst =
  let l = List.filter (fun (_, c) -> c <> 0) l in
  let l = List.sort (fun (a, _) (b, _) -> compare_var a b) l in
  (* combine duplicates *)
  let rec squash = function
    | (v1, c1) :: (v2, c2) :: rest when compare_var v1 v2 = 0 ->
        squash ((v1, c1 + c2) :: rest)
    | t :: rest -> t :: squash rest
    | [] -> []
  in
  { terms = List.filter (fun (_, c) -> c <> 0) (squash l); cst }

let terms e = e.terms
let constant e = e.cst
let coeff e v = try List.assoc v e.terms with Not_found -> 0
let add a b = { terms = merge a.terms b.terms; cst = a.cst + b.cst }
let scale k e =
  if k = 0 then zero
  else { terms = List.map (fun (v, c) -> (v, k * c)) e.terms; cst = k * e.cst }
let neg e = scale (-1) e
let sub a b = add a (neg b)
let add_const c e = { e with cst = e.cst + c }
let is_const e = e.terms = []
let mentions e v = List.mem_assoc v e.terms

let subst e v r =
  let c = coeff e v in
  if c = 0 then e
  else
    let without = { e with terms = List.remove_assoc v e.terms } in
    add without (scale c r)

let content e = List.fold_left (fun g (_, c) -> Ints.gcd g c) 0 e.terms

let divide_exact e d =
  let dv c =
    if c mod d = 0 then c / d
    else invalid_arg "Lin.divide_exact: not divisible"
  in
  { terms = List.map (fun (v, c) -> (v, dv c)) e.terms; cst = dv e.cst }

let equal a b = a = b
let eval e env = List.fold_left (fun acc (v, c) -> acc + (c * env v)) e.cst e.terms
