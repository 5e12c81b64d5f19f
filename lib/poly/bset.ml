type t = {
  params : string array;
  dims : string array;
  nexist : int;
  divs : (int * (Lin.t * int)) list;
      (* memo of existentials introduced as floor divisions: index |-> (num, den).
         Used to reuse the same existential for syntactically equal divisions,
         which keeps rational projection exact for tiling constraint systems. *)
  eqs : Lin.t list;
  ineqs : Lin.t list;
}

let universe ~params ~dims =
  {
    params = Array.of_list params;
    dims = Array.of_list dims;
    nexist = 0;
    divs = [];
    eqs = [];
    ineqs = [];
  }

let params t = t.params
let dims t = t.dims

let index_of arr name =
  let n = Array.length arr in
  let rec go i =
    if i >= n then raise Not_found
    else if String.equal arr.(i) name then i
    else go (i + 1)
  in
  go 0

let dim_index t name = index_of t.dims name
let dim_var t name = Lin.D (dim_index t name)
let param_var t name = Lin.P (index_of t.params name)

let add_dims t names =
  List.iter
    (fun n ->
      if Array.exists (String.equal n) t.dims then
        invalid_arg ("Bset.add_dims: duplicate dimension " ^ n))
    names;
  { t with dims = Array.append t.dims (Array.of_list names) }

let eqs t = t.eqs
let ineqs t = t.ineqs

let falsum = Lin.const (-1)

(* Normalize an inequality [e >= 0]: divide by the gcd of the variable
   coefficients, flooring the constant (integer tightening). Returns [None]
   when trivially true. *)
let norm_ineq e =
  let g = Lin.content e in
  if g = 0 then if Lin.constant e >= 0 then None else Some falsum
  else if g = 1 then Some e
  else
    let terms = List.map (fun (v, c) -> (v, c / g)) (Lin.terms e) in
    Some (Lin.of_terms terms (Ints.fdiv (Lin.constant e) g))

(* Normalize an equality [e = 0]. Returns [Error] when infeasible over the
   integers, [None] when trivially true. *)
let norm_eq e =
  let g = Lin.content e in
  if g = 0 then if Lin.constant e = 0 then `True else `False
  else if Lin.constant e mod g <> 0 then `False
  else if g = 1 then `Eq e
  else `Eq (Lin.divide_exact e g)

let dedup_ineqs ineqs =
  (* Group by term vector, keep the tightest (smallest) constant. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = Lin.terms e in
      let c = Lin.constant e in
      match Hashtbl.find_opt tbl key with
      | Some c' when c' <= c -> ()
      | _ -> Hashtbl.replace tbl key c)
    ineqs;
  Hashtbl.fold (fun k c acc -> Lin.of_terms k c :: acc) tbl []

let add_ineq t e =
  match norm_ineq e with None -> t | Some e -> { t with ineqs = e :: t.ineqs }

let add_eq t e =
  match norm_eq e with
  | `True -> t
  | `False -> { t with ineqs = falsum :: t.ineqs }
  | `Eq e -> { t with eqs = e :: t.eqs }

(* ------------------------------------------------------------------ *)
(* Linearization of quasi-affine trees                                  *)
(* ------------------------------------------------------------------ *)

let rec linearize t aff =
  match aff with
  | Aff.Const n -> (t, Lin.const n)
  | Aff.Var s -> (t, Lin.var (dim_var t s))
  | Aff.Param s -> (t, Lin.var (param_var t s))
  | Aff.Add (a, b) ->
      let t, la = linearize t a in
      let t, lb = linearize t b in
      (t, Lin.add la lb)
  | Aff.Sub (a, b) ->
      let t, la = linearize t a in
      let t, lb = linearize t b in
      (t, Lin.sub la lb)
  | Aff.Mul (k, a) ->
      let t, la = linearize t a in
      (t, Lin.scale k la)
  | Aff.Fdiv (a, d) ->
      let t, q = linearize_div t a d in
      (t, Lin.var q)
  | Aff.Mod (a, d) ->
      let t, la = linearize t a in
      let t, q = linearize_div t a d in
      (t, Lin.sub la (Lin.scale d (Lin.var q)))

and linearize_div t a d =
  (* q = floor(a/d): introduce existential q with 0 <= a - d*q <= d-1,
     reusing an existing div for the same (numerator, denominator). *)
  let t, la = linearize t a in
  match
    List.find_opt (fun (_, (num, den)) -> den = d && Lin.equal num la) t.divs
  with
  | Some (i, _) -> (t, Lin.X i)
  | None ->
      let i = t.nexist in
      let q = Lin.X i in
      let t = { t with nexist = i + 1; divs = (i, (la, d)) :: t.divs } in
      let rem = Lin.sub la (Lin.scale d (Lin.var q)) in
      let t = add_ineq t rem in
      let t = add_ineq t (Lin.add_const (d - 1) (Lin.neg rem)) in
      (t, q)

let add_aff_ineq t aff =
  let t, l = linearize t aff in
  add_ineq t l

let add_aff_eq t aff =
  let t, l = linearize t aff in
  add_eq t l

let constrain_range t d ~lo ~hi =
  let t = add_aff_ineq t (Aff.sub (Aff.var d) lo) in
  add_aff_ineq t (Aff.sub (Aff.sub hi (Aff.var d)) (Aff.const 1))

let meet a b =
  if a.params <> b.params || a.dims <> b.dims then
    invalid_arg "Bset.meet: different spaces";
  let shift e =
    Lin.of_terms
      (List.map
         (fun (v, c) ->
           match v with
           | Lin.X i -> (Lin.X (i + a.nexist), c)
           | Lin.P _ | Lin.D _ -> (v, c))
         (Lin.terms e))
      (Lin.constant e)
  in
  let t =
    {
      a with
      nexist = a.nexist + b.nexist;
      divs =
        a.divs
        @ List.map (fun (i, (num, d)) -> (i + a.nexist, (shift num, d))) b.divs;
    }
  in
  let t = List.fold_left (fun t e -> add_eq t (shift e)) t b.eqs in
  List.fold_left (fun t e -> add_ineq t (shift e)) t b.ineqs

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin elimination                                          *)
(* ------------------------------------------------------------------ *)

let subst_unit_eq eqs ineqs v eq =
  (* [eq] has coefficient +-1 on [v]; solve for [v] and substitute. *)
  let c = Lin.coeff eq v in
  let rest = Lin.of_terms (List.remove_assoc v (Lin.terms eq)) (Lin.constant eq) in
  (* c*v + rest = 0  =>  v = -rest/c; with c = +-1: v = -c*rest *)
  let repl = Lin.scale (-c) rest in
  let sub e = Lin.subst e v repl in
  (List.map sub eqs, List.map sub ineqs)

let fm_step eqs ineqs v =
  (* Pure Fourier–Motzkin once no equality mentions v with unit coefficient:
     equalities mentioning v are split into inequality pairs. *)
  let splits, eqs =
    List.partition (fun e -> Lin.mentions e v) eqs
  in
  let ineqs =
    List.fold_left (fun acc e -> e :: Lin.neg e :: acc) ineqs splits
  in
  let with_v, without = List.partition (fun e -> Lin.mentions e v) ineqs in
  let lows, ups =
    List.partition (fun e -> Lin.coeff e v > 0) with_v
  in
  let combined =
    List.concat_map
      (fun l ->
        let la = Lin.coeff l v in
        List.map
          (fun u ->
            let ua = Lin.coeff u v in
            (* la > 0, ua < 0 *)
            Lin.add (Lin.scale (-ua) l) (Lin.scale la u))
          ups)
      lows
  in
  let fresh = List.filter_map norm_ineq combined in
  (eqs, dedup_ineqs (fresh @ without))

let elim_var eqs ineqs v =
  match List.find_opt (fun e -> abs (Lin.coeff e v) = 1) eqs with
  | Some eq ->
      let eqs = List.filter (fun e -> e != eq) eqs in
      subst_unit_eq eqs ineqs v eq
  | None -> fm_step eqs ineqs v

let renorm (eqs, ineqs) t =
  let t0 = { t with eqs = []; ineqs = [] } in
  let t1 = List.fold_left add_eq t0 eqs in
  let t2 = List.fold_left add_ineq t1 ineqs in
  { t2 with ineqs = dedup_ineqs t2.ineqs }

let eliminate t vars =
  let acc =
    List.fold_left (fun (eqs, ineqs) v -> elim_var eqs ineqs v) (t.eqs, t.ineqs) vars
  in
  (* Invalidate memoized divisions that refer to an eliminated variable (or
     were eliminated themselves): their defining constraints are gone, so
     they must not be reused by future linearizations. *)
  let divs =
    List.filter
      (fun (i, (num, _)) ->
        (not (List.mem (Lin.X i) vars))
        && not (List.exists (Lin.mentions num) vars))
      t.divs
  in
  renorm acc { t with divs }

let exist_vars t = List.init t.nexist (fun i -> Lin.X i)

let project_onto t keep =
  let drop =
    Array.to_list t.dims
    |> List.filteri (fun _ n -> not (List.mem n keep))
    |> List.map (fun n -> dim_var t n)
  in
  eliminate t (drop @ exist_vars t)

let all_dim_vars t = List.init (Array.length t.dims) (fun i -> Lin.D i)

let has_false ineqs =
  List.exists (fun e -> Lin.is_const e && Lin.constant e < 0) ineqs

let is_empty t =
  let t' = eliminate t (all_dim_vars t @ exist_vars t) in
  (* Any remaining constraints only involve parameters; the set is provably
     empty only if a constant contradiction was derived. *)
  has_false t'.ineqs
  || List.exists (fun e -> Lin.is_const e && Lin.constant e <> 0) t'.eqs

let subst_params_values t values =
  let value_of i =
    match List.assoc_opt t.params.(i) values with
    | Some v -> Some v
    | None -> None
  in
  let subst_lin e =
    List.fold_left
      (fun e (v, c) ->
        match v with
        | Lin.P i -> (
            match value_of i with
            | Some x ->
                Lin.add_const (c * x)
                  (Lin.of_terms (List.remove_assoc v (Lin.terms e)) (Lin.constant e))
            | None -> e)
        | Lin.D _ | Lin.X _ -> e)
      e (Lin.terms e)
  in
  renorm (List.map subst_lin t.eqs, List.map subst_lin t.ineqs) t

let implies_aff_ineq t aff =
  (* t implies aff >= 0  iff  t /\ aff <= -1 is empty *)
  let t', l = linearize t aff in
  let negated = add_ineq t' (Lin.add_const (-1) (Lin.neg l)) in
  is_empty negated

(* ------------------------------------------------------------------ *)
(* Bounds                                                               *)
(* ------------------------------------------------------------------ *)

type bound = { expr : Lin.t; den : int }

let dim_bounds t ~dim ~using =
  let keep = dim :: using in
  let t' = project_onto t keep in
  let v = dim_var t dim in
  let lows = ref [] and ups = ref [] in
  let record e =
    let a = Lin.coeff e v in
    if a <> 0 then begin
      let rest = Lin.of_terms (List.remove_assoc v (Lin.terms e)) (Lin.constant e) in
      if a > 0 then lows := { expr = Lin.neg rest; den = a } :: !lows
      else ups := { expr = rest; den = -a } :: !ups
    end
  in
  List.iter record t'.ineqs;
  List.iter
    (fun e ->
      let a = Lin.coeff e v in
      if a <> 0 then begin
        let e = if a > 0 then e else Lin.neg e in
        record e;
        record (Lin.neg e)
      end)
    t'.eqs;
  (!lows, !ups)

let lin_to_aff t e =
  let term (v, c) =
    match v with
    | Lin.P i -> Aff.mul c (Aff.param t.params.(i))
    | Lin.D i -> Aff.mul c (Aff.var t.dims.(i))
    | Lin.X _ -> invalid_arg "Bset.lin_to_aff: existential variable"
  in
  Aff.sum (Aff.const (Lin.constant e) :: List.map term (Lin.terms e))

let bound_to_aff t ~round b =
  if b.den = 1 then lin_to_aff t b.expr
  else
    match round with
    | `Floor -> Aff.fdiv (lin_to_aff t b.expr) b.den
    | `Ceil -> Aff.neg (Aff.fdiv (Aff.neg (lin_to_aff t b.expr)) b.den)

(* ------------------------------------------------------------------ *)
(* Membership and enumeration (testing aids)                            *)
(* ------------------------------------------------------------------ *)

let numeric_bounds_for eqs ineqs v =
  (* Rational bounds on [v] from constraints where [v] is the only variable. *)
  let lo = ref min_int and hi = ref max_int and feasible = ref true in
  let consider kind e =
    let a = Lin.coeff e v in
    let rest = Lin.of_terms (List.remove_assoc v (Lin.terms e)) (Lin.constant e) in
    if Lin.is_const rest && a <> 0 then begin
      let c = Lin.constant rest in
      (* a*v + c >= 0 *)
      if a > 0 then lo := max !lo (Ints.cdiv (-c) a)
      else hi := min !hi (Ints.fdiv c (-a));
      if kind = `Eq then
        if a > 0 then hi := min !hi (Ints.fdiv (-c) a)
        else lo := max !lo (Ints.cdiv c (-a))
    end
    else if a = 0 && Lin.is_const e then begin
      match kind with
      | `Ineq -> if Lin.constant e < 0 then feasible := false
      | `Eq -> if Lin.constant e <> 0 then feasible := false
    end
  in
  List.iter (consider `Eq) eqs;
  List.iter (consider `Ineq) ineqs;
  (!lo, !hi, !feasible)

let rec exists_solution eqs ineqs xvars =
  match xvars with
  | [] ->
      List.for_all (fun e -> (not (Lin.is_const e)) || Lin.constant e = 0) eqs
      && List.for_all
           (fun e -> (not (Lin.is_const e)) || Lin.constant e >= 0)
           ineqs
      && List.for_all Lin.is_const eqs
      && List.for_all Lin.is_const ineqs
  | v :: rest ->
      (* Use FM to bound v tightly before searching. *)
      let eqs', ineqs' =
        List.fold_left (fun (e, i) u -> elim_var e i u) (eqs, ineqs) rest
      in
      let lo, hi, feasible = numeric_bounds_for eqs' ineqs' v in
      feasible && lo <> min_int && hi <> max_int
      && (let found = ref false in
          let x = ref lo in
          while (not !found) && !x <= hi do
            let sub e = Lin.subst e v (Lin.const !x) in
            if exists_solution (List.map sub eqs) (List.map sub ineqs) rest then
              found := true;
            incr x
          done;
          !found)

let mem t ~params:pvals point =
  let t = subst_params_values t pvals in
  let bind e =
    List.fold_left
      (fun e (name, x) ->
        match index_of t.dims name with
        | i -> Lin.subst e (Lin.D i) (Lin.const x)
        | exception Not_found -> invalid_arg ("Bset.mem: unknown dim " ^ name))
      e point
  in
  let eqs = List.map bind t.eqs and ineqs = List.map bind t.ineqs in
  (* Remaining variables must be existentials (and all dims bound). *)
  exists_solution eqs ineqs (exist_vars t)

let enumerate t ~params:pvals =
  let n = Array.length t.dims in
  let dim_names = Array.to_list t.dims in
  (* Pre-project for each depth: bounds of dim i given dims < i. *)
  let projected =
    Array.init n (fun i ->
        let keep = List.filteri (fun j _ -> j <= i) dim_names in
        project_onto (subst_params_values t pvals) keep)
  in
  let results = ref [] in
  let point = Array.make n 0 in
  let rec go depth =
    if depth = n then begin
      let binding = List.mapi (fun i name -> (name, point.(i))) dim_names in
      if mem t ~params:pvals binding then results := Array.copy point :: !results
    end
    else begin
      let tp = projected.(depth) in
      let v = Lin.D (dim_index tp t.dims.(depth)) in
      let bind e =
        let e = ref e in
        for j = 0 to depth - 1 do
          e := Lin.subst !e (Lin.D (dim_index tp t.dims.(j))) (Lin.const point.(j))
        done;
        !e
      in
      let eqs = List.map bind tp.eqs and ineqs = List.map bind tp.ineqs in
      let lo, hi, feasible = numeric_bounds_for eqs ineqs v in
      if feasible then begin
        if lo = min_int || hi = max_int then
          invalid_arg
            (Printf.sprintf "Bset.enumerate: dimension %s is unbounded"
               t.dims.(depth));
        for x = lo to hi do
          point.(depth) <- x;
          go (depth + 1)
        done
      end
    end
  in
  go 0;
  List.rev !results
