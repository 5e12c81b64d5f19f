(* Tests for the reference BLAS layer. *)

open Sw_blas

let check = Alcotest.check
let qtest = Helpers.qtest

let test_matrix_basics () =
  let m = Matrix.init ~rows:3 ~cols:4 ~f:(fun i j -> float_of_int ((10 * i) + j)) in
  Helpers.check_close "get" 12.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 99.0;
  Helpers.check_close "set" 99.0 (Matrix.get m 1 2);
  (match Matrix.get m 3 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bounds");
  let c = Matrix.copy m in
  Matrix.set c 0 0 (-1.0);
  Helpers.check_close "copy is deep" 0.0 (Matrix.get m 0 0)

let test_round_up () =
  check Alcotest.int "already aligned" 512 (Matrix.round_up 512 ~multiple:512);
  check Alcotest.int "rounds" 1024 (Matrix.round_up 513 ~multiple:512);
  check Alcotest.int "one" 512 (Matrix.round_up 1 ~multiple:512)

let test_gemm_identity () =
  let n = 5 in
  let i5 = Matrix.init ~rows:n ~cols:n ~f:(fun i j -> if i = j then 1.0 else 0.0) in
  let b = Matrix.random ~rows:n ~cols:n ~seed:3 in
  let c = Matrix.create ~rows:n ~cols:n in
  Dgemm.gemm ~alpha:1.0 ~beta:0.0 ~a:i5 ~b ~c;
  Helpers.check_close "I*B = B" 0.0 (Matrix.max_abs_diff b c)

let test_gemm_beta () =
  let a = Matrix.init ~rows:2 ~cols:2 ~f:(fun _ _ -> 0.0) in
  let b = Matrix.init ~rows:2 ~cols:2 ~f:(fun _ _ -> 1.0) in
  let c = Matrix.init ~rows:2 ~cols:2 ~f:(fun _ _ -> 2.0) in
  Dgemm.gemm ~alpha:1.0 ~beta:0.5 ~a ~b ~c;
  Helpers.check_close "beta scales C" 1.0 (Matrix.get c 0 0)

let test_gemm_shape_check () =
  let a = Matrix.create ~rows:2 ~cols:3 in
  let b = Matrix.create ~rows:4 ~cols:2 in
  let c = Matrix.create ~rows:2 ~cols:2 in
  match Dgemm.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shape mismatch accepted"

let test_flops () =
  check Alcotest.int "flops" (2 * 3 * 4 * 5) (Dgemm.gemm_flops ~m:3 ~n:4 ~k:5)

let test_batched () =
  let mk seed = Matrix.random ~rows:3 ~cols:3 ~seed in
  let a = [| mk 1; mk 2 |] and b = [| mk 3; mk 4 |] in
  let c = [| Matrix.create ~rows:3 ~cols:3; Matrix.create ~rows:3 ~cols:3 |] in
  Dgemm.batched ~alpha:1.0 ~beta:0.0 ~a ~b ~c;
  let c0 = Matrix.create ~rows:3 ~cols:3 in
  Dgemm.gemm ~alpha:1.0 ~beta:0.0 ~a:a.(1) ~b:b.(1) ~c:c0;
  Helpers.check_close "second element" 0.0 (Matrix.max_abs_diff c0 c.(1))

let test_fused_prologue_matches_manual () =
  let a = Matrix.random ~rows:4 ~cols:4 ~seed:5 in
  let b = Matrix.random ~rows:4 ~cols:4 ~seed:6 in
  let c = Matrix.create ~rows:4 ~cols:4 in
  Dgemm.fused_prologue ~fn:"quant" ~alpha:1.0 ~beta:0.0 ~a ~b ~c;
  let qa = Matrix.map (Sw_kernels.Elementwise.reference "quant") a in
  let c2 = Matrix.create ~rows:4 ~cols:4 in
  Dgemm.gemm ~alpha:1.0 ~beta:0.0 ~a:qa ~b ~c:c2;
  Helpers.check_close "matches manual quant" 0.0 (Matrix.max_abs_diff c2 c);
  (* A itself untouched *)
  Alcotest.(check bool) "A not modified" true
    (Matrix.max_abs_diff a (Matrix.random ~rows:4 ~cols:4 ~seed:5) = 0.0)

let test_fused_epilogue () =
  let a = Matrix.random ~rows:4 ~cols:4 ~seed:7 in
  let b = Matrix.random ~rows:4 ~cols:4 ~seed:8 in
  let c = Matrix.create ~rows:4 ~cols:4 in
  Dgemm.fused_epilogue ~fn:"relu" ~alpha:1.0 ~beta:0.0 ~a ~b ~c;
  Alcotest.(check bool) "all non-negative" true
    (Array.for_all (fun x -> x >= 0.0) c.Matrix.data)

let prop_gemm_linearity =
  qtest ~count:50 "gemm is linear in alpha"
    QCheck.(pair (int_range 1 6) (int_range 0 100))
    (fun (n, seed) ->
      let a = Matrix.random ~rows:n ~cols:n ~seed in
      let b = Matrix.random ~rows:n ~cols:n ~seed:(seed + 1) in
      let c1 = Matrix.create ~rows:n ~cols:n in
      let c2 = Matrix.create ~rows:n ~cols:n in
      Dgemm.gemm ~alpha:1.0 ~beta:0.0 ~a ~b ~c:c1;
      Dgemm.gemm ~alpha:2.0 ~beta:0.0 ~a ~b ~c:c2;
      Matrix.max_abs_diff (Matrix.map (fun x -> 2.0 *. x) c1) c2 < 1e-12)

let prop_random_deterministic =
  qtest "random matrices are deterministic per seed" (QCheck.int_range 0 1000)
    (fun seed ->
      Matrix.max_abs_diff
        (Matrix.random ~rows:3 ~cols:5 ~seed)
        (Matrix.random ~rows:3 ~cols:5 ~seed)
      = 0.0)

let tests =
  [
    ("matrix basics", `Quick, test_matrix_basics);
    ("round_up", `Quick, test_round_up);
    ("gemm identity", `Quick, test_gemm_identity);
    ("gemm beta", `Quick, test_gemm_beta);
    ("gemm shape check", `Quick, test_gemm_shape_check);
    ("flops", `Quick, test_flops);
    ("batched", `Quick, test_batched);
    ("fused prologue", `Quick, test_fused_prologue_matches_manual);
    ("fused epilogue", `Quick, test_fused_epilogue);
    prop_gemm_linearity;
    prop_random_deterministic;
  ]

(* ------------------------------------------------------------------ *)
(* LU: the Linpack consumer                                             *)
(* ------------------------------------------------------------------ *)

let test_lu_solve () =
  let n = 24 in
  let a = Lu.diagonally_dominant ~n ~seed:5 in
  let x_true = Array.init n (fun i -> float_of_int (i + 1) /. 7.0) in
  let b =
    Array.init n (fun i ->
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s := !s +. (Matrix.get a i j *. x_true.(j))
        done;
        !s)
  in
  let lu = Matrix.copy a in
  Lu.factor lu;
  let x = Lu.solve ~lu ~b in
  Helpers.check_close ~tol:1e-8 "residual" 0.0 (Lu.residual ~a ~x ~b);
  Array.iteri (fun i xi -> Helpers.check_close ~tol:1e-8 "solution" x_true.(i) xi) x

let test_blocked_matches_unblocked () =
  let n = 40 in
  let a = Lu.diagonally_dominant ~n ~seed:9 in
  let ref_lu = Matrix.copy a in
  Lu.factor ref_lu;
  let blk = Matrix.copy a in
  let gemm ~a ~b ~c = Dgemm.gemm ~alpha:(-1.0) ~beta:1.0 ~a ~b ~c in
  Lu.blocked_factor ~bs:12 ~gemm blk;
  Helpers.check_close ~tol:1e-9 "factor agreement" 0.0 (Matrix.max_abs_diff ref_lu blk)

let prop_blocked_block_sizes =
  qtest ~count:20 "blocked LU is block-size independent"
    QCheck.(pair (int_range 1 20) (int_range 0 100))
    (fun (bs, seed) ->
      let n = 30 in
      let a = Lu.diagonally_dominant ~n ~seed in
      let one = Matrix.copy a and two = Matrix.copy a in
      let gemm ~a ~b ~c = Dgemm.gemm ~alpha:(-1.0) ~beta:1.0 ~a ~b ~c in
      Lu.blocked_factor ~bs ~gemm one;
      Lu.factor two;
      Matrix.max_abs_diff one two < 1e-8)

let lu_tests =
  [
    ("LU solve", `Quick, test_lu_solve);
    ("blocked = unblocked", `Quick, test_blocked_matches_unblocked);
    prop_blocked_block_sizes;
  ]

let tests = tests @ lu_tests
