(* Tests for quasi-affine trees, access relations and dependence analysis. *)

open Sw_poly

let check = Alcotest.check
let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Aff                                                                  *)
(* ------------------------------------------------------------------ *)

let test_simplify () =
  check Alcotest.bool "x + 0 = x" true (Aff.equal (Aff.var "x") (Aff.add (Aff.var "x") (Aff.const 0)));
  check Alcotest.bool "0*x = 0" true (Aff.equal (Aff.const 0) (Aff.mul 0 (Aff.var "x")));
  check Alcotest.bool "1*x = x" true (Aff.equal (Aff.var "x") (Aff.mul 1 (Aff.var "x")));
  check Alcotest.bool "const folding" true
    (Aff.equal (Aff.const 7) (Aff.add (Aff.const 3) (Aff.const 4)));
  check Alcotest.bool "fdiv of const" true
    (Aff.equal (Aff.const (-4)) (Aff.fdiv (Aff.const (-7)) 2));
  check Alcotest.bool "mod by 1 is 0" true
    (Aff.equal (Aff.const 0) (Aff.fmod (Aff.var "x") 1));
  check Alcotest.bool "nested mul folds" true
    (Aff.equal (Aff.mul 6 (Aff.var "x")) (Aff.mul 2 (Aff.mul 3 (Aff.var "x"))))

let test_eval () =
  let vars = function "i" -> 100 | "j" -> 7 | _ -> 0 in
  let params = function "M" -> 512 | _ -> 0 in
  let e =
    Aff.sub (Aff.var "i") (Aff.mul 64 (Aff.fdiv (Aff.var "i") 64))
  in
  check Alcotest.int "i mod 64 via fdiv" 36 (Aff.eval ~vars ~params e);
  check Alcotest.int "Mod node" 36 (Aff.eval ~vars ~params (Aff.fmod (Aff.var "i") 64));
  check Alcotest.int "param use" 412
    (Aff.eval ~vars ~params Aff.(sub (param "M") (var "i")))

let test_subst () =
  let e = Aff.add (Aff.var "i") (Aff.mul 2 (Aff.var "j")) in
  let s = Aff.subst [ ("i", Aff.const 5); ("j", Aff.var "t") ] e in
  check Alcotest.int "subst eval"
    (5 + (2 * 9))
    (Aff.eval ~vars:(function "t" -> 9 | _ -> 0) ~params:(fun _ -> 0) s);
  (* params not touched by subst *)
  let p = Aff.subst [ ("M", Aff.const 1) ] (Aff.param "M") in
  check Alcotest.bool "param untouched by var subst" true (Aff.equal p (Aff.param "M"))

let test_free_vars () =
  let e =
    Aff.add
      (Aff.fdiv (Aff.add (Aff.var "i") (Aff.param "M")) 8)
      (Aff.fmod (Aff.var "j") 4)
  in
  check (Alcotest.list Alcotest.string) "vars" [ "i"; "j" ] (Aff.free_vars e);
  check (Alcotest.list Alcotest.string) "params" [ "M" ] (Aff.free_params e)

let test_to_string () =
  let e = Aff.sub (Aff.var "i") (Aff.mul 64 (Aff.fdiv (Aff.var "i") 64)) in
  check Alcotest.string "printed form" "i - 64*floord(i, 64)" (Aff.to_string e)

let prop_eval_fdiv =
  qtest "Aff.fdiv matches Ints.fdiv"
    QCheck.(pair (int_range (-500) 500) (int_range 1 32))
    (fun (x, d) ->
      let e = Aff.fdiv (Aff.var "x") d in
      Aff.eval ~vars:(fun _ -> x) ~params:(fun _ -> 0) e = Ints.fdiv x d)

let prop_subst_compose =
  qtest "substitution then eval = eval in extended env"
    QCheck.(pair (int_range (-20) 20) (int_range (-20) 20))
    (fun (a, b) ->
      let e = Aff.add (Aff.mul 3 (Aff.var "x")) (Aff.fmod (Aff.var "y") 5) in
      let s = Aff.subst [ ("x", Aff.add (Aff.var "y") (Aff.const a)) ] e in
      let vars = function "y" -> b | _ -> 0 in
      Aff.eval ~vars ~params:(fun _ -> 0) s
      = Aff.eval
          ~vars:(function "x" -> b + a | "y" -> b | _ -> 0)
          ~params:(fun _ -> 0) e)

(* The lowered evaluators against the reference [eval]. Trees are built
   from raw constructors (no smart-constructor folding, so every fused
   shape of [lower] is reached) over four slot variables x0..x3, two
   constant parameters p0, p1 and one computed parameter p2; operands
   range over negative values so Fdiv and Mod see them. *)
let gen_aff_with ~divisor =
  QCheck.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun c -> Aff.Const c) (int_range (-40) 40);
                 map (fun i -> Aff.Var (Printf.sprintf "x%d" i)) (int_bound 3);
                 map (fun i -> Aff.Param (Printf.sprintf "p%d" i)) (int_bound 2);
               ]
           in
           if n = 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 (1, leaf);
                 (2, map2 (fun a b -> Aff.Add (a, b)) sub sub);
                 (2, map2 (fun a b -> Aff.Sub (a, b)) sub sub);
                 (1, map2 (fun k a -> Aff.Mul (k, a)) (int_range (-5) 5) sub);
                 (2, map2 (fun a d -> Aff.Fdiv (a, d)) sub divisor);
                 (2, map2 (fun a d -> Aff.Mod (a, d)) sub divisor);
               ]))

let gen_aff = gen_aff_with ~divisor:(QCheck.Gen.int_range 1 7)

let gen_env = QCheck.Gen.(array_size (return 4) (int_range (-60) 60))
let gen_params = QCheck.Gen.(pair (int_range (-60) 60) (int_range (-60) 60))

(* The resolvers [lower] sees and the lookups [eval] sees, for one
   environment and one parameter binding. *)
let resolvers (p0, p1) =
  let slot v = int_of_string (String.sub v 1 (String.length v - 1)) in
  let computed env = env.(0) - (3 * env.(3)) in
  let lower_params = function
    | "p0" -> Aff.Value p0
    | "p1" -> Aff.Value p1
    | _ -> Aff.Dynamic computed
  in
  let eval_params env = function "p0" -> p0 | "p1" -> p1 | _ -> computed env in
  ( (fun v -> Aff.Slot (slot v)),
    lower_params,
    (fun env v -> env.(slot v)),
    eval_params )

let lower_agrees ?(count = 500) name gen_aff gen_env =
  qtest ~count name
    (QCheck.make
       ~print:(fun (e, env, (p0, p1)) ->
         Printf.sprintf "%s with x = [%s], p0 = %d, p1 = %d" (Aff.to_string e)
           (String.concat "; " (Array.to_list (Array.map string_of_int env)))
           p0 p1)
       QCheck.Gen.(triple gen_aff gen_env gen_params))
    (fun (e, env, ps) ->
      let vars, params, eval_vars, eval_params = resolvers ps in
      Aff.lower ~vars ~params e env
      = Aff.eval ~vars:(eval_vars env) ~params:(eval_params env) e)

let prop_aff_lower_agrees = lower_agrees "Aff.lower agrees with Aff.eval" gen_aff gen_env

(* Floor and modulo by a power of two lower to a shift and a mask, and by
   any other divisor to one division: divisors from 1 to 64, half of them
   powers of two, over slots far below zero. *)
let prop_aff_lower_divisors =
  lower_agrees "Aff.lower agrees with Aff.eval: divisors 1-64, negative slots"
    (gen_aff_with
       ~divisor:QCheck.Gen.(oneof [ map (fun k -> 1 lsl k) (int_bound 6); int_range 1 64 ]))
    QCheck.Gen.(array_size (return 4) (int_range (-1_000_000) 60))

(* A divisor of 0 or below only comes from a raw constructor ([Aff.fdiv]
   and [Aff.fmod] reject it): lowering keeps [Ints]' floor semantics for
   a negative one and, for 0, still raises [Division_by_zero] only when
   the expression is evaluated, constant operand or not. *)
let prop_aff_lower_nonpositive_divisor =
  qtest "Aff.lower by a divisor <= 0 agrees with Aff.eval; 0 raises when run"
    QCheck.(pair (int_range (-64) 0) (int_range (-1000) 1000))
    (fun (d, x) ->
      let outcome f = match f () with v -> Ok v | exception Division_by_zero -> Error () in
      List.for_all
        (fun e ->
          let lowered = Aff.lower ~vars:(fun _ -> Aff.Slot 0) ~params:(fun _ -> Aff.Value 0) e in
          let got = outcome (fun () -> lowered [| x |]) in
          got = outcome (fun () -> Aff.eval ~vars:(fun _ -> x) ~params:(fun _ -> 0) e)
          && (d <> 0 || got = Error ()))
        Aff.
          [
            Fdiv (Var "x", d);
            Mod (Var "x", d);
            Fdiv (Const x, d);
            Mod (Const x, d);
            Fdiv (Add (Var "x", Const 1), d);
            Mod (Add (Var "x", Const 1), d);
          ])

let prop_pred_lower_agrees =
  let open Sw_tree in
  let gen_pred =
    QCheck.Gen.(
      map3
        (fun lhs rel rhs -> { Pred.lhs; rel; rhs })
        gen_aff
        (oneofl [ Pred.Eq; Pred.Le; Pred.Lt; Pred.Ge; Pred.Gt ])
        gen_aff)
  in
  qtest ~count:500 "Pred.lower agrees with Pred.eval"
    (QCheck.make
       ~print:(fun (p, _, _) -> Pred.to_string p)
       QCheck.Gen.(triple gen_pred gen_env gen_params))
    (fun (p, env, ps) ->
      let vars, params, eval_vars, eval_params = resolvers ps in
      Pred.lower ~vars ~params p env
      = Pred.eval ~vars:(eval_vars env) ~params:(eval_params env) p)

(* ------------------------------------------------------------------ *)
(* Access                                                               *)
(* ------------------------------------------------------------------ *)

let gemm_domain () =
  let t = Bset.universe ~params:[ "M"; "N"; "K" ] ~dims:[ "i"; "j"; "k" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  Bset.constrain_range t "k" ~lo:(Aff.const 0) ~hi:(Aff.param "K")

let gemm_accesses () =
  [
    Access.write "C" [ Aff.var "i"; Aff.var "j" ];
    Access.read "C" [ Aff.var "i"; Aff.var "j" ];
    Access.read "A" [ Aff.var "i"; Aff.var "k" ];
    Access.read "B" [ Aff.var "k"; Aff.var "j" ];
  ]

let test_access_to_string () =
  let a = Access.read "A" [ Aff.var "i"; Aff.var "k" ] in
  check Alcotest.string "render" "A[i][k] (read)" (Access.to_string a)

let test_footprint_whole_domain () =
  (* Footprint of A[i][k] over the whole domain is [0, M-1] x [0, K-1]. *)
  let domain = gemm_domain () in
  let a = Access.read "A" [ Aff.var "i"; Aff.var "k" ] in
  let bounds = Access.footprint_bounds ~domain ~context_dims:[] a in
  check Alcotest.int "two dims" 2 (List.length bounds);
  let eval e = Aff.eval ~vars:(fun _ -> 0) ~params:(function "M" -> 96 | "K" -> 32 | _ -> 0) e in
  let lo bs = List.fold_left (fun acc b -> max acc (eval b)) min_int (fst bs) in
  let hi bs = List.fold_left (fun acc b -> min acc (eval b)) max_int (snd bs) in
  let b0 = List.nth bounds 0 and b1 = List.nth bounds 1 in
  check Alcotest.int "row lo" 0 (lo b0);
  check Alcotest.int "row hi" 95 (hi b0);
  check Alcotest.int "col lo" 0 (lo b1);
  check Alcotest.int "col hi" 31 (hi b1)

let test_footprint_tile () =
  (* Fix tile coordinates ti = floor(i/4), tk = floor(k/2); the footprint of
     A[i][k] in terms of (ti, tk) is the 4 x 2 box starting at (4ti, 2tk)
     (clamped by M, K). *)
  let domain = gemm_domain () in
  let domain = Bset.add_dims domain [ "ti"; "tk" ] in
  let domain = Bset.add_aff_eq domain (Aff.sub (Aff.var "ti") (Aff.fdiv (Aff.var "i") 4)) in
  let domain = Bset.add_aff_eq domain (Aff.sub (Aff.var "tk") (Aff.fdiv (Aff.var "k") 2)) in
  let a = Access.read "A" [ Aff.var "i"; Aff.var "k" ] in
  let bounds = Access.footprint_bounds ~domain ~context_dims:[ "ti"; "tk" ] a in
  let eval ~ti ~tk e =
    Aff.eval
      ~vars:(function "ti" -> ti | "tk" -> tk | _ -> 0)
      ~params:(function "M" -> 96 | "K" -> 32 | "N" -> 8 | _ -> 0)
      e
  in
  let lo ~ti ~tk bs = List.fold_left (fun acc b -> max acc (eval ~ti ~tk b)) min_int (fst bs) in
  let hi ~ti ~tk bs = List.fold_left (fun acc b -> min acc (eval ~ti ~tk b)) max_int (snd bs) in
  let b0 = List.nth bounds 0 and b1 = List.nth bounds 1 in
  check Alcotest.int "row lo of tile (2,3)" 8 (lo ~ti:2 ~tk:3 b0);
  check Alcotest.int "row hi of tile (2,3)" 11 (hi ~ti:2 ~tk:3 b0);
  check Alcotest.int "col lo of tile (2,3)" 6 (lo ~ti:2 ~tk:3 b1);
  check Alcotest.int "col hi of tile (2,3)" 7 (hi ~ti:2 ~tk:3 b1)

(* ------------------------------------------------------------------ *)
(* Dep                                                                  *)
(* ------------------------------------------------------------------ *)

let test_gemm_parallelism () =
  let r = Dep.analyze ~domain:(gemm_domain ()) ~accesses:(gemm_accesses ()) in
  check Alcotest.(array bool) "i, j coincident; k not" [| true; true; false |] r.Dep.coincident;
  check Alcotest.bool "tilable" true r.Dep.permutable;
  check Alcotest.bool "k is a reduction" true r.Dep.has_reduction

let test_independent_loops () =
  (* A 2D copy C[i][j] = A[i][j] has no self-dependence at all. *)
  let t = Bset.universe ~params:[ "M"; "N" ] ~dims:[ "i"; "j" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  let accesses =
    [ Access.write "C" [ Aff.var "i"; Aff.var "j" ]; Access.read "A" [ Aff.var "i"; Aff.var "j" ] ]
  in
  let r = Dep.analyze ~domain:t ~accesses in
  check Alcotest.(array bool) "all coincident" [| true; true |] r.Dep.coincident;
  check Alcotest.bool "tilable" true r.Dep.permutable;
  check Alcotest.bool "no reduction" false r.Dep.has_reduction

let test_output_dependence_on_k () =
  (* Writing C[i][j] inside a 3D nest carries an output dependence on k, so
     k must not be reported parallel. *)
  let accesses = [ Access.write "C" [ Aff.var "i"; Aff.var "j" ] ] in
  let r = Dep.analyze ~domain:(gemm_domain ()) ~accesses in
  check Alcotest.(array bool) "k carries output dep" [| true; true; false |]
    r.Dep.coincident

let test_skewed_dependence () =
  (* A[i][j] = A[i-1][j+1]: dependence distance (1, -1): i not coincident,
     j not coincident, band not permutable. *)
  let t = Bset.universe ~params:[ "N" ] ~dims:[ "i"; "j" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 1) ~hi:(Aff.param "N") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.sub (Aff.param "N") (Aff.const 1)) in
  let accesses =
    [
      Access.write "A" [ Aff.var "i"; Aff.var "j" ];
      Access.read "A"
        [ Aff.sub (Aff.var "i") (Aff.const 1); Aff.add (Aff.var "j") (Aff.const 1) ];
    ]
  in
  let r = Dep.analyze ~domain:t ~accesses in
  check Alcotest.(array bool) "neither coincident" [| false; false |] r.Dep.coincident;
  check Alcotest.bool "not permutable" false r.Dep.permutable

let test_uniform_forward_dependence () =
  (* A[i][j] = A[i-1][j]: distance (1, 0): j stays parallel, band is
     permutable. *)
  let t = Bset.universe ~params:[ "N" ] ~dims:[ "i"; "j" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 1) ~hi:(Aff.param "N") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  let accesses =
    [
      Access.write "A" [ Aff.var "i"; Aff.var "j" ];
      Access.read "A" [ Aff.sub (Aff.var "i") (Aff.const 1); Aff.var "j" ];
    ]
  in
  let r = Dep.analyze ~domain:t ~accesses in
  check Alcotest.(array bool) "j coincident" [| false; true |] r.Dep.coincident;
  check Alcotest.bool "permutable" true r.Dep.permutable

let test_batched_gemm_parallelism () =
  (* Batched GEMM: the batch dimension is fully parallel. *)
  let t = Bset.universe ~params:[ "Bt"; "M"; "N"; "K" ] ~dims:[ "b"; "i"; "j"; "k" ] in
  let t = Bset.constrain_range t "b" ~lo:(Aff.const 0) ~hi:(Aff.param "Bt") in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  let t = Bset.constrain_range t "k" ~lo:(Aff.const 0) ~hi:(Aff.param "K") in
  let accesses =
    [
      Access.write "C" [ Aff.var "b"; Aff.var "i"; Aff.var "j" ];
      Access.read "C" [ Aff.var "b"; Aff.var "i"; Aff.var "j" ];
      Access.read "A" [ Aff.var "b"; Aff.var "i"; Aff.var "k" ];
      Access.read "B" [ Aff.var "b"; Aff.var "k"; Aff.var "j" ];
    ]
  in
  let r = Dep.analyze ~domain:t ~accesses in
  check Alcotest.(array bool) "b,i,j coincident" [| true; true; true; false |] r.Dep.coincident;
  check Alcotest.bool "tilable" true r.Dep.permutable

let prop_pointwise_always_parallel =
  qtest "pointwise ops are always fully parallel" (QCheck.int_range 1 4)
    (fun n ->
      let dims = List.init n (fun i -> Printf.sprintf "i%d" i) in
      let t = Bset.universe ~params:[ "N" ] ~dims in
      let t =
        List.fold_left
          (fun t d -> Bset.constrain_range t d ~lo:(Aff.const 0) ~hi:(Aff.param "N"))
          t dims
      in
      let idx = List.map Aff.var dims in
      let r =
        Dep.analyze ~domain:t
          ~accesses:[ Access.write "X" idx; Access.read "Y" idx ]
      in
      Array.for_all (fun b -> b) r.Dep.coincident && r.Dep.permutable)

let tests =
  [
    ("smart constructors simplify", `Quick, test_simplify);
    ("evaluation", `Quick, test_eval);
    ("substitution", `Quick, test_subst);
    ("free variables", `Quick, test_free_vars);
    ("printing", `Quick, test_to_string);
    ("access printing", `Quick, test_access_to_string);
    ("footprint of whole domain", `Quick, test_footprint_whole_domain);
    ("footprint of a tile", `Quick, test_footprint_tile);
    ("GEMM parallelism (paper 2.2)", `Quick, test_gemm_parallelism);
    ("independent loops", `Quick, test_independent_loops);
    ("output dependence on k", `Quick, test_output_dependence_on_k);
    ("skewed dependence", `Quick, test_skewed_dependence);
    ("uniform forward dependence", `Quick, test_uniform_forward_dependence);
    ("batched GEMM parallelism", `Quick, test_batched_gemm_parallelism);
    prop_eval_fdiv;
    prop_subst_compose;
    prop_aff_lower_agrees;
    prop_aff_lower_divisors;
    prop_aff_lower_nonpositive_divisor;
    prop_pred_lower_agrees;
    prop_pointwise_always_parallel;
  ]
