(* Tests for the polyhedral substrate: Ints, Lin, Bset. *)

open Sw_poly

let check = Alcotest.check
let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Ints                                                                 *)
(* ------------------------------------------------------------------ *)

let test_fdiv () =
  check Alcotest.int "fdiv 7 2" 3 (Ints.fdiv 7 2);
  check Alcotest.int "fdiv -7 2" (-4) (Ints.fdiv (-7) 2);
  check Alcotest.int "fdiv 7 -2" (-4) (Ints.fdiv 7 (-2));
  check Alcotest.int "fdiv -7 -2" 3 (Ints.fdiv (-7) (-2));
  check Alcotest.int "cdiv 7 2" 4 (Ints.cdiv 7 2);
  check Alcotest.int "cdiv -7 2" (-3) (Ints.cdiv (-7) 2);
  check Alcotest.int "fmod -7 2" 1 (Ints.fmod (-7) 2);
  check Alcotest.int "fmod 7 2" 1 (Ints.fmod 7 2)

let test_gcd_lcm () =
  check Alcotest.int "gcd 12 18" 6 (Ints.gcd 12 18);
  check Alcotest.int "gcd 0 5" 5 (Ints.gcd 0 5);
  check Alcotest.int "gcd -12 18" 6 (Ints.gcd (-12) 18);
  check Alcotest.int "gcd 0 0" 0 (Ints.gcd 0 0)

let test_pow2 () =
  List.iter
    (fun (n, expect) ->
      check Alcotest.bool (Printf.sprintf "pow2 %d" n) expect (Ints.pow2 n))
    [ (1, true); (2, true); (1024, true); (0, false); (-4, false); (6144, false); (16384, true) ]

let prop_fdiv_identity =
  qtest "a = b*fdiv(a,b) + fmod(a,b)"
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 64))
    (fun (a, b) -> a = (b * Ints.fdiv a b) + Ints.fmod a b)

let prop_fmod_range =
  qtest "0 <= fmod(a,b) < b"
    QCheck.(pair (int_range (-1000) 1000) (int_range 1 64))
    (fun (a, b) ->
      let r = Ints.fmod a b in
      0 <= r && r < b)

(* The one-division [fdiv] and [fmod] against their two-division
   definition, over operands that include [min_int], [max_int], [-1] and
   negative divisors (the wrapping [min_int / -1] among them). *)
let prop_one_division =
  let edge = QCheck.Gen.oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ] in
  let operand = QCheck.Gen.(frequency [ (1, edge); (2, int); (3, int_range (-200) 200) ]) in
  let divisor = QCheck.Gen.map (fun b -> if b = 0 then 1 else b) operand in
  let fdiv2 a b =
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q
  in
  qtest ~count:2000 "one-division fdiv/fmod = the two-division definition"
    (QCheck.make ~print:QCheck.Print.(pair int int) (QCheck.Gen.pair operand divisor))
    (fun (a, b) -> Ints.fdiv a b = fdiv2 a b && Ints.fmod a b = a - (b * fdiv2 a b))

let test_division_by_zero () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name Division_by_zero (fun () -> ignore (f 7 0)))
    [ ("fdiv", Ints.fdiv); ("fmod", Ints.fmod); ("cdiv", Ints.cdiv) ]

(* ------------------------------------------------------------------ *)
(* Lin                                                                  *)
(* ------------------------------------------------------------------ *)

let v0 = Lin.D 0
let v1 = Lin.D 1
let p0 = Lin.P 0

let test_lin_build () =
  let e = Lin.of_terms [ (v1, 2); (v0, 3); (v1, -2) ] 5 in
  check Alcotest.int "coeff v0" 3 (Lin.coeff e v0);
  check Alcotest.int "coeff v1 cancels" 0 (Lin.coeff e v1);
  check Alcotest.int "constant" 5 (Lin.constant e);
  check Alcotest.bool "mentions v0" true (Lin.mentions e v0);
  check Alcotest.bool "not mentions v1" false (Lin.mentions e v1)

let test_lin_arith () =
  let a = Lin.of_terms [ (v0, 1); (p0, 2) ] 1 in
  let b = Lin.of_terms [ (v0, -1); (v1, 4) ] 2 in
  let s = Lin.add a b in
  check Alcotest.int "v0 cancels" 0 (Lin.coeff s v0);
  check Alcotest.int "v1" 4 (Lin.coeff s v1);
  check Alcotest.int "p0" 2 (Lin.coeff s p0);
  check Alcotest.int "const" 3 (Lin.constant s);
  let n = Lin.neg a in
  check Alcotest.int "neg const" (-1) (Lin.constant n);
  check Alcotest.int "neg coeff" (-1) (Lin.coeff n v0)

let test_lin_subst () =
  (* e = 2*v0 + v1 + 1, v0 := v1 - 3  =>  2*v1 - 6 + v1 + 1 = 3*v1 - 5 *)
  let e = Lin.of_terms [ (v0, 2); (v1, 1) ] 1 in
  let r = Lin.of_terms [ (v1, 1) ] (-3) in
  let s = Lin.subst e v0 r in
  check Alcotest.int "v0 gone" 0 (Lin.coeff s v0);
  check Alcotest.int "v1" 3 (Lin.coeff s v1);
  check Alcotest.int "const" (-5) (Lin.constant s)

let test_lin_divide () =
  let e = Lin.of_terms [ (v0, 4); (v1, 6) ] 8 in
  let d = Lin.divide_exact e 2 in
  check Alcotest.int "v0/2" 2 (Lin.coeff d v0);
  check Alcotest.int "content" 2 (Lin.content e);
  Alcotest.check_raises "not divisible" (Invalid_argument "Lin.divide_exact: not divisible")
    (fun () -> ignore (Lin.divide_exact e 3))

let prop_lin_eval_add =
  let gen = QCheck.(triple (int_range (-9) 9) (int_range (-9) 9) (int_range (-9) 9)) in
  qtest "eval distributes over add" (QCheck.pair gen gen)
    (fun ((a0, a1, ac), (b0, b1, bc)) ->
      let mk c0 c1 c = Lin.of_terms [ (v0, c0); (v1, c1) ] c in
      let env = function Lin.D 0 -> 7 | Lin.D 1 -> -3 | _ -> 0 in
      Lin.eval (Lin.add (mk a0 a1 ac) (mk b0 b1 bc)) env
      = Lin.eval (mk a0 a1 ac) env + Lin.eval (mk b0 b1 bc) env)

(* ------------------------------------------------------------------ *)
(* Bset                                                                 *)
(* ------------------------------------------------------------------ *)

let gemm_domain ?(m = "M") ?(n = "N") ?(k = "K") () =
  let t = Bset.universe ~params:[ m; n; k ] ~dims:[ "i"; "j"; "k" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param m) in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param n) in
  Bset.constrain_range t "k" ~lo:(Aff.const 0) ~hi:(Aff.param k)

let test_universe_nonempty () =
  let t = Bset.universe ~params:[] ~dims:[ "x" ] in
  check Alcotest.bool "universe non-empty" false (Bset.is_empty t)

let test_contradiction_empty () =
  let t = Bset.universe ~params:[] ~dims:[ "x" ] in
  let x = Aff.var "x" in
  let t = Bset.add_aff_ineq t (Aff.sub x (Aff.const 5)) in
  let t = Bset.add_aff_ineq t (Aff.sub (Aff.const 3) x) in
  check Alcotest.bool "5 <= x <= 3 empty" true (Bset.is_empty t)

let test_param_emptiness () =
  let t = Bset.universe ~params:[ "M" ] ~dims:[ "x" ] in
  let t = Bset.constrain_range t "x" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  check Alcotest.bool "symbolically not provably empty" false (Bset.is_empty t);
  check Alcotest.bool "empty when M=0" true (Bset.enumerate t ~params:[ ("M", 0) ] = []);
  check Alcotest.bool "non-empty when M=4" false (Bset.enumerate t ~params:[ ("M", 4) ] = [])

let test_enumerate_box () =
  let t = gemm_domain () in
  let pts = Bset.enumerate t ~params:[ ("M", 2); ("N", 3); ("K", 2) ] in
  check Alcotest.int "2*3*2 points" 12 (List.length pts);
  check Alcotest.bool "contains (1,2,1)" true
    (List.exists (fun p -> p = [| 1; 2; 1 |]) pts)

let test_enumerate_triangle () =
  let t = Bset.universe ~params:[ "N" ] ~dims:[ "i"; "j" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  let t = Bset.constrain_range t "j" ~lo:(Aff.const 0) ~hi:(Aff.param "N") in
  let t = Bset.add_aff_ineq t (Aff.sub (Aff.var "i") (Aff.var "j")) in
  (* j <= i *)
  let pts = Bset.enumerate t ~params:[ ("N", 4) ] in
  check Alcotest.int "triangular count" 10 (List.length pts)

let test_mem_divs () =
  (* x : exists q: x = 2q  (even numbers) via x - 2*floor(x/2) = 0 *)
  let t = Bset.universe ~params:[] ~dims:[ "x" ] in
  let t = Bset.constrain_range t "x" ~lo:(Aff.const 0) ~hi:(Aff.const 10) in
  let t = Bset.add_aff_eq t (Aff.fmod (Aff.var "x") 2) in
  check Alcotest.bool "4 is even" true (Bset.mem t ~params:[] [ ("x", 4) ]);
  check Alcotest.bool "5 is odd" false (Bset.mem t ~params:[] [ ("x", 5) ]);
  let pts = Bset.enumerate t ~params:[] in
  check Alcotest.int "evens in [0,10)" 5 (List.length pts)

let test_projection () =
  (* { (i, j) : 0 <= i < 8, i <= j <= i + 2 }; projecting out j gives 0 <= i < 8 *)
  let t = Bset.universe ~params:[] ~dims:[ "i"; "j" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.const 8) in
  let t = Bset.constrain_range t "j" ~lo:(Aff.var "i") ~hi:(Aff.add (Aff.var "i") (Aff.const 3)) in
  let p = Bset.project_onto t [ "i" ] in
  let lbs, ubs = Bset.dim_bounds p ~dim:"i" ~using:[] in
  check Alcotest.bool "has lower bound" true (lbs <> []);
  check Alcotest.bool "has upper bound" true (ubs <> []);
  (* After projection j is unconstrained, so enumeration must refuse. *)
  (match Bset.enumerate p ~params:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected enumerate to reject unbounded dimension");
  let lo, hi =
    let eval ~round b =
      Aff.eval ~vars:(fun _ -> 0) ~params:(fun _ -> 0) (Bset.bound_to_aff p ~round b)
    in
    ( List.fold_left (fun acc b -> max acc (eval ~round:`Ceil b)) min_int lbs,
      List.fold_left (fun acc b -> min acc (eval ~round:`Floor b)) max_int ubs )
  in
  check Alcotest.int "i lower" 0 lo;
  check Alcotest.int "i upper" 7 hi

let test_dim_bounds_tiled () =
  (* Tiled loop: t = floor(i/64), 0 <= i < M.  Bounds on t must be
     0 <= t <= floord(M-1, 64). *)
  let t = Bset.universe ~params:[ "M" ] ~dims:[ "i"; "t" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  let t = Bset.add_aff_eq t (Aff.sub (Aff.var "t") (Aff.fdiv (Aff.var "i") 64)) in
  let lbs, ubs = Bset.dim_bounds t ~dim:"t" ~using:[] in
  let eval_bound ~round ~m b =
    let a = Bset.bound_to_aff t ~round b in
    Aff.eval ~vars:(fun _ -> 0) ~params:(function "M" -> m | _ -> 0) a
  in
  let lo m = List.fold_left (fun acc b -> max acc (eval_bound ~round:`Ceil ~m b)) min_int lbs in
  let hi m = List.fold_left (fun acc b -> min acc (eval_bound ~round:`Floor ~m b)) max_int ubs in
  check Alcotest.int "lo at M=512" 0 (lo 512);
  check Alcotest.int "hi at M=512" 7 (hi 512);
  check Alcotest.int "hi at M=100" 1 (hi 100);
  check Alcotest.int "hi at M=64" 0 (hi 64)

let test_inner_tile_bounds () =
  (* Inner point loop: p = i - 64*floor(i/64) with outer t fixed:
     p in [max(0, -64t), min(63, M-1-64t)] *)
  let t = Bset.universe ~params:[ "M" ] ~dims:[ "i"; "t"; "p" ] in
  let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
  let t = Bset.add_aff_eq t (Aff.sub (Aff.var "t") (Aff.fdiv (Aff.var "i") 64)) in
  let t =
    Bset.add_aff_eq t
      (Aff.sub (Aff.var "p")
         (Aff.sub (Aff.var "i") (Aff.mul 64 (Aff.fdiv (Aff.var "i") 64))))
  in
  let lbs, ubs = Bset.dim_bounds t ~dim:"p" ~using:[ "t" ] in
  let eval ~round ~m ~tv b =
    Aff.eval
      ~vars:(function "t" -> tv | _ -> 0)
      ~params:(function "M" -> m | _ -> 0)
      (Bset.bound_to_aff t ~round b)
  in
  let hi ~m ~tv = List.fold_left (fun acc b -> min acc (eval ~round:`Floor ~m ~tv b)) max_int ubs in
  let lo ~m ~tv = List.fold_left (fun acc b -> max acc (eval ~round:`Ceil ~m ~tv b)) min_int lbs in
  check Alcotest.int "full tile hi" 63 (hi ~m:512 ~tv:3);
  check Alcotest.int "partial tile hi (M=100,t=1)" 35 (hi ~m:100 ~tv:1);
  check Alcotest.int "lo is 0" 0 (lo ~m:512 ~tv:3)

let test_implies () =
  let t = gemm_domain () in
  check Alcotest.bool "domain implies i >= 0" true
    (Bset.implies_aff_ineq t (Aff.var "i"));
  check Alcotest.bool "domain implies i <= M-1" true
    (Bset.implies_aff_ineq t
       (Aff.sub (Aff.sub (Aff.param "M") (Aff.var "i")) (Aff.const 1)));
  check Alcotest.bool "domain does not imply i <= 10" false
    (Bset.implies_aff_ineq t (Aff.sub (Aff.const 10) (Aff.var "i")))

let test_eq_infeasible_integer () =
  (* 2x = 1 has no integer solution; gcd normalization must catch it. *)
  let t = Bset.universe ~params:[] ~dims:[ "x" ] in
  let t =
    Bset.add_aff_eq t (Aff.sub (Aff.mul 2 (Aff.var "x")) (Aff.const 1))
  in
  check Alcotest.bool "2x=1 empty" true (Bset.is_empty t)

let prop_tiling_partition =
  (* Every i in [0,M) belongs to exactly one (t, p) with t = floor(i/S),
     p = i mod S: enumerate the tiled set and compare cardinality. *)
  qtest "tiling preserves cardinality"
    QCheck.(pair (int_range 1 40) (int_range 1 8))
    (fun (m, s) ->
      let t = Bset.universe ~params:[ "M" ] ~dims:[ "i"; "t"; "p" ] in
      let t = Bset.constrain_range t "i" ~lo:(Aff.const 0) ~hi:(Aff.param "M") in
      let t = Bset.add_aff_eq t (Aff.sub (Aff.var "t") (Aff.fdiv (Aff.var "i") s)) in
      let t = Bset.add_aff_eq t (Aff.sub (Aff.var "p") (Aff.fmod (Aff.var "i") s)) in
      let pts = Bset.enumerate t ~params:[ ("M", m) ] in
      List.length pts = m
      && List.for_all
           (fun p ->
             match p with
             | [| i; tt; pp |] -> tt = Ints.fdiv i s && pp = Ints.fmod i s
             | _ -> false)
           pts)

let prop_mem_matches_enumerate =
  qtest "mem agrees with enumerate on random boxes"
    QCheck.(triple (int_range 1 6) (int_range 1 6) (int_range 0 5))
    (fun (m, n, shift) ->
      let t = Bset.universe ~params:[] ~dims:[ "x"; "y" ] in
      let t = Bset.constrain_range t "x" ~lo:(Aff.const 0) ~hi:(Aff.const m) in
      let t =
        Bset.constrain_range t "y" ~lo:(Aff.const shift)
          ~hi:(Aff.const (shift + n))
      in
      let pts = Bset.enumerate t ~params:[] in
      List.length pts = m * n
      && List.for_all
           (fun p -> Bset.mem t ~params:[] [ ("x", p.(0)); ("y", p.(1)) ])
           pts
      && not (Bset.mem t ~params:[] [ ("x", m); ("y", shift) ]))

let tests =
  [
    ("fdiv/cdiv/fmod", `Quick, test_fdiv);
    ("gcd/lcm", `Quick, test_gcd_lcm);
    ("pow2", `Quick, test_pow2);
    ("Lin build/normalize", `Quick, test_lin_build);
    ("Lin arithmetic", `Quick, test_lin_arith);
    ("Lin substitution", `Quick, test_lin_subst);
    ("Lin exact division", `Quick, test_lin_divide);
    ("universe non-empty", `Quick, test_universe_nonempty);
    ("contradiction empty", `Quick, test_contradiction_empty);
    ("parametric emptiness", `Quick, test_param_emptiness);
    ("enumerate box", `Quick, test_enumerate_box);
    ("enumerate triangle", `Quick, test_enumerate_triangle);
    ("membership with divs", `Quick, test_mem_divs);
    ("projection", `Quick, test_projection);
    ("tiled dim bounds", `Quick, test_dim_bounds_tiled);
    ("inner tile bounds", `Quick, test_inner_tile_bounds);
    ("implication", `Quick, test_implies);
    ("integer-infeasible equality", `Quick, test_eq_infeasible_integer);
    prop_lin_eval_add;
    prop_tiling_partition;
    prop_fdiv_identity;
    prop_fmod_range;
    prop_mem_matches_enumerate;
  ]

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin soundness properties                                 *)
(* ------------------------------------------------------------------ *)

(* Random small constraint systems over two dims inside a box; emptiness
   decided by FM must agree with brute-force enumeration whenever FM claims
   emptiness (rational FM is exact for emptiness in one direction: a
   FM-empty set has no integer points; a FM-nonempty set might still have
   no integer points, which FM is allowed to miss). *)
let random_system (c1, c2, c3, seed) =
  let rng = Random.State.make [| seed |] in
  let coef () = Random.State.int rng 7 - 3 in
  let t = Bset.universe ~params:[] ~dims:[ "x"; "y" ] in
  let t = Bset.constrain_range t "x" ~lo:(Aff.const (-4)) ~hi:(Aff.const 5) in
  let t = Bset.constrain_range t "y" ~lo:(Aff.const (-4)) ~hi:(Aff.const 5) in
  let add t c =
    Bset.add_aff_ineq t
      Aff.(add (add (mul (coef ()) (var "x")) (mul (coef ()) (var "y"))) (const c))
  in
  List.fold_left add t [ c1; c2; c3 ]

let prop_fm_emptiness_sound =
  qtest ~count:300 "FM emptiness is sound wrt enumeration"
    QCheck.(
      quad (int_range (-6) 6) (int_range (-6) 6) (int_range (-6) 6)
        (int_range 0 10_000))
    (fun inputs ->
      let t = random_system inputs in
      let empty_fm = Bset.is_empty t in
      let pts = Bset.enumerate t ~params:[] in
      (* FM-empty implies no integer points; and if integer points exist FM
         must not claim emptiness *)
      (not empty_fm) || pts = [])

let prop_fm_projection_covers =
  qtest ~count:200 "projection contains the shadow of every point"
    QCheck.(
      quad (int_range (-6) 6) (int_range (-6) 6) (int_range (-6) 6)
        (int_range 0 10_000))
    (fun inputs ->
      let t = random_system inputs in
      let pts = Bset.enumerate t ~params:[] in
      let proj = Bset.project_onto t [ "x" ] in
      List.for_all
        (fun p ->
          (* every point's shadow lies in the projection; the projected
             set no longer constrains y *)
          Bset.mem proj ~params:[] [ ("x", p.(0)); ("y", p.(1)) ])
        pts)

let prop_implication_sound =
  qtest ~count:200 "implies_aff_ineq never claims a falsifiable implication"
    QCheck.(
      quad (int_range (-6) 6) (int_range (-6) 6) (int_range (-3) 3)
        (int_range 0 10_000))
    (fun (c1, c2, c0, seed) ->
      let t = random_system (c1, c2, 2, seed) in
      let claim = Aff.(add (add (var "x") (mul c0 (var "y"))) (const c2)) in
      if Bset.implies_aff_ineq t claim then
        List.for_all
          (fun p ->
            Aff.eval
              ~vars:(function "x" -> p.(0) | _ -> p.(1))
              ~params:(fun _ -> 0) claim
            >= 0)
          (Bset.enumerate t ~params:[])
      else true)

let fm_tests =
  [ prop_fm_emptiness_sound; prop_fm_projection_covers; prop_implication_sound ]

let tests = tests @ fm_tests

(* ------------------------------------------------------------------ *)
(* Peeling                                                              *)
(* ------------------------------------------------------------------ *)

(* The pipeline's peeling filters partition the reduced dimension: the
   three ko branches of the Fig.-11 tree cover [0, K) exactly once. *)
let test_peeling_partitions_domain () =
  let k_total = 32 and panel = 4 in
  let nko = k_total / panel in
  let base =
    let t = Bset.universe ~params:[] ~dims:[ "k" ] in
    Bset.constrain_range t "k" ~lo:(Aff.const 0) ~hi:(Aff.const k_total)
  in
  let ko = Aff.fdiv (Aff.var "k") panel in
  let branch lo hi =
    let t = Bset.add_aff_ineq base (Aff.sub ko (Aff.const lo)) in
    Bset.add_aff_ineq t (Aff.sub (Aff.const hi) ko)
  in
  let prologue = branch 0 0 in
  let steady = branch 0 (nko - 2) in
  let last = branch (nko - 1) (nko - 1) in
  let points t = List.length (Bset.enumerate t ~params:[]) in
  (* compute branches: steady + last partition the whole domain; both lie
     inside [base] by construction, so disjointness plus a matching point
     count means they cover it *)
  Alcotest.(check bool) "steady and last disjoint" true
    (Bset.is_empty (Bset.meet steady last));
  check Alcotest.int "steady+last cover the domain" (points base)
    (points steady + points last);
  (* the DMA prologue touches exactly the first panel *)
  check Alcotest.int "prologue = first panel" panel (points prologue)

let tests =
  tests
  @ [
      ("peeling partitions the domain (Fig 11)", `Quick, test_peeling_partitions_domain);
      ("fdiv/cdiv/fmod by zero raise", `Quick, test_division_by_zero);
      prop_one_division;
    ]
