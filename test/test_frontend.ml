(* Tests for the C front-end: lexer, parser, SCoP extraction and GEMM
   pattern recognition. *)

open Sw_frontend
open Sw_arch

let compile_exn = Helpers.compile_exn

let check = Alcotest.check

let gemm_src =
  {|
/* the naive GEMM of Fig. 2a, with concrete sizes */
void gemm(double A[16][16], double B[16][8], double C[16][8]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
|}

let gemm_sym_src =
  {|
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += alpha * A[i][k] * B[k][j];
}
|}

let batched_src =
  {|
void bgemm(double A[4][16][16], double B[4][16][16], double C[4][16][16]) {
  for (int b = 0; b < 4; b++)
    for (int i = 0; i < 16; i++)
      for (int j = 0; j < 16; j++)
        for (int k = 0; k < 16; k++)
          C[b][i][j] = C[b][i][j] + A[b][i][k] * B[b][k][j];
}
|}

let fused_prologue_src =
  {|
void qgemm(double A[16][16], double B[16][16], double C[16][16]) {
  for (int i = 0; i < 16; i++)
    for (int k = 0; k < 16; k++)
      A[i][k] = quant(A[i][k]);
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
|}

let fused_epilogue_src =
  {|
void agemm(double A[16][16], double B[16][16], double C[16][16]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 16; j++)
      C[i][j] = relu(C[i][j]);
}
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "for (int i = 0; i < 16; i++)" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  check Alcotest.bool "starts with for" true
    (match kinds with Lexer.KW "for" :: _ -> true | _ -> false);
  check Alcotest.bool "ends with EOF" true
    (List.exists (fun t -> t = Lexer.EOF) kinds);
  check Alcotest.bool "has ++" true
    (List.exists (fun t -> t = Lexer.PUNCT "++") kinds)

let test_lexer_comments () =
  let toks = Lexer.tokenize "x // comment\n/* block\ncomment */ y" in
  let idents =
    List.filter_map
      (fun t -> match t.Lexer.tok with Lexer.IDENT s -> Some s | _ -> None)
      toks
  in
  check (Alcotest.list Alcotest.string) "comments skipped" [ "x"; "y" ] idents

let test_lexer_numbers () =
  let toks = Lexer.tokenize "42 3.5 1e3 2.5e-2" in
  let nums =
    List.filter_map
      (fun t ->
        match t.Lexer.tok with
        | Lexer.INT v -> Some (float_of_int v)
        | Lexer.FLOAT f -> Some f
        | _ -> None)
      toks
  in
  check (Alcotest.list (Alcotest.float 1e-12)) "numbers" [ 42.0; 3.5; 1000.0; 0.025 ] nums

let test_lexer_error_position () =
  match Lexer.tokenize "a\nb @" with
  | exception Lexer.Lex_error msg ->
      check Alcotest.bool "mentions line 2" true
        (String.length msg > 6 && String.sub msg 0 6 = "line 2")
  | _ -> Alcotest.fail "expected lex error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_gemm () =
  let f = Parser.parse gemm_src in
  check Alcotest.string "name" "gemm" f.Cast.fname;
  check Alcotest.int "three params" 3 (List.length f.Cast.params);
  match f.Cast.body with
  | [ Cast.For { var = "i"; body = [ Cast.For { var = "j"; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected body shape"

(* The right-hand side of one assignment, parsed as part of a function. *)
let parse_rhs src =
  match (Parser.parse ("void f(double C[1]) { C[0] = " ^ src ^ "; }")).Cast.body with
  | [ Cast.Assign { rhs; _ } ] -> rhs
  | _ -> Alcotest.fail "expected one assignment"

let test_parse_expr_precedence () =
  (* a + b * c parses as a + (b * c) *)
  match parse_rhs "a + b * c" with
  | Cast.Bin (Cast.Add, Cast.Var "a", Cast.Bin (Cast.Mul, Cast.Var "b", Cast.Var "c")) -> ()
  | e -> Alcotest.failf "wrong precedence: %s" (Cast.expr_to_string e)

let test_parse_call_and_index () =
  (match parse_rhs "quant(A[i][k])" with
  | Cast.Call ("quant", [ Cast.Index ("A", [ Cast.Var "i"; Cast.Var "k" ]) ]) -> ()
  | e -> Alcotest.failf "bad call parse: %s" (Cast.expr_to_string e));
  match parse_rhs "-x * 2" with
  | Cast.Bin (Cast.Mul, Cast.Neg (Cast.Var "x"), Cast.Int 2) -> ()
  | e -> Alcotest.failf "bad unary parse: %s" (Cast.expr_to_string e)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "accepted: %s" src)
    [
      "void f( { }";
      "void f() { for (i = 0; j < 4; i++) A[i][0] = 0; }";
      "void f() { x = 3; }";
      "void f() { A[0][0] = ; }";
      "int g() { }";
    ]

(* ------------------------------------------------------------------ *)
(* SCoP extraction                                                      *)
(* ------------------------------------------------------------------ *)

let test_scop_gemm () =
  let s = Extract.scop (Parser.parse gemm_src) in
  check Alcotest.int "one statement" 1 (List.length s.Extract.stmts);
  let st = List.hd s.Extract.stmts in
  check (Alcotest.list Alcotest.string) "iterators" [ "i"; "j"; "k" ] st.Sw_tree.Stmt.iters;
  check Alcotest.int "accesses (W C, R C, R A, R B)" 4
    (List.length st.Sw_tree.Stmt.accesses);
  (* the domain is the concrete 16 x 8 x 16 box *)
  let pts = Sw_poly.Bset.enumerate st.Sw_tree.Stmt.domain ~params:[] in
  check Alcotest.int "domain size" (16 * 8 * 16) (List.length pts)

let test_scop_dependence_integration () =
  (* the extracted statement feeds Tree.initial and yields the expected
     parallelism flags *)
  let s = Extract.scop (Parser.parse gemm_src) in
  match Sw_tree.Tree.initial s.Extract.stmts with
  | Sw_tree.Tree.Domain (_, Sw_tree.Tree.Band (b, _)) ->
      check
        (Alcotest.list Alcotest.bool)
        "coincidence" [ true; true; false ]
        (List.map (fun (m : Sw_tree.Tree.member) -> m.Sw_tree.Tree.coincident) b.Sw_tree.Tree.members)
  | _ -> Alcotest.fail "tree shape"

let test_scop_rejects_nonaffine () =
  let src =
    "void f(double A[8][8]) { for (int i = 0; i < 8; i++) A[i][i * i] = \
     A[i][0]; }"
  in
  match Extract.scop (Parser.parse src) with
  | exception Extract.Extract_error _ -> ()
  | _ -> Alcotest.fail "non-affine index accepted"

(* ------------------------------------------------------------------ *)
(* Recognition                                                          *)
(* ------------------------------------------------------------------ *)

let ok = function
  | Ok s -> s
  | Error e -> Alcotest.failf "recognition failed: %s" e

let test_recognize_plain () =
  let spec = ok (Extract.spec_of_source gemm_src) in
  check Alcotest.int "m" 16 spec.Sw_core.Spec.m;
  check Alcotest.int "n" 8 spec.Sw_core.Spec.n;
  check Alcotest.int "k" 16 spec.Sw_core.Spec.k;
  check (Alcotest.float 0.0) "alpha" 1.0 spec.Sw_core.Spec.alpha;
  check Alcotest.bool "no batch" true (spec.Sw_core.Spec.batch = None)

let test_recognize_symbolic () =
  let spec =
    ok
      (Extract.spec_of_source
         ~bindings:[ ("M", 32); ("N", 16); ("K", 8) ]
         ~fbindings:[ ("alpha", 0.5) ]
         gemm_sym_src)
  in
  check Alcotest.int "m" 32 spec.Sw_core.Spec.m;
  check Alcotest.int "k" 8 spec.Sw_core.Spec.k;
  check (Alcotest.float 0.0) "alpha" 0.5 spec.Sw_core.Spec.alpha;
  (* missing bindings are reported *)
  match Extract.spec_of_source gemm_sym_src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound sizes accepted"

let test_recognize_batched () =
  let spec = ok (Extract.spec_of_source batched_src) in
  check Alcotest.bool "batch of 4" true (spec.Sw_core.Spec.batch = Some 4)

let test_recognize_prologue () =
  let spec = ok (Extract.spec_of_source fused_prologue_src) in
  check Alcotest.bool "prologue quant" true
    (spec.Sw_core.Spec.fusion = Sw_core.Spec.Prologue "quant")

let test_recognize_epilogue () =
  let spec = ok (Extract.spec_of_source fused_epilogue_src) in
  check Alcotest.bool "epilogue relu" true
    (spec.Sw_core.Spec.fusion = Sw_core.Spec.Epilogue "relu")

let test_recognize_rejects () =
  List.iter
    (fun (src, why) ->
      match Extract.spec_of_source src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted (%s)" why)
    [
      ( "void f(double A[8][8], double C[8][8]) { for (int i = 0; i < 8; \
         i++) for (int j = 0; j < 8; j++) C[i][j] = A[i][j]; }",
        "copy is not a GEMM" );
      ( "void f(double A[8][8], double B[8][8], double C[8][8]) { for (int \
         i = 0; i < 8; i++) for (int j = 0; j < 8; j++) for (int k = 0; k < \
         8; k++) C[i][j] = C[i][j] + A[i][j] * B[k][j]; }",
        "A access without the reduction index" );
      ( "void f(double A[8][8], double B[8][8], double C[8][8]) { for (int \
         i = 1; i < 8; i++) for (int j = 0; j < 8; j++) for (int k = 0; k < \
         8; k++) C[i][j] = C[i][j] + A[i][k] * B[k][j]; }",
        "loop not starting at 0" );
    ]

(* ------------------------------------------------------------------ *)
(* Front-end to simulator integration                                   *)
(* ------------------------------------------------------------------ *)

let test_source_to_verified_kernel () =
  (* the full promised workflow: write C, get a verified kernel *)
  let spec = ok (Extract.spec_of_source gemm_src) in
  let compiled = compile_exn ~config:(Config.tiny ()) spec in
  match Sw_core.Runner.verify compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Sw_core.Runner.error_to_string e)

let test_source_to_verified_fused () =
  let spec = ok (Extract.spec_of_source fused_epilogue_src) in
  let compiled = compile_exn ~config:(Config.tiny ()) spec in
  match Sw_core.Runner.verify compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Sw_core.Runner.error_to_string e)

let tests =
  [
    ("lexer basics", `Quick, test_lexer_basic);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer numbers", `Quick, test_lexer_numbers);
    ("lexer error position", `Quick, test_lexer_error_position);
    ("parse GEMM", `Quick, test_parse_gemm);
    ("expression precedence", `Quick, test_parse_expr_precedence);
    ("calls and indexing", `Quick, test_parse_call_and_index);
    ("parse errors", `Quick, test_parse_errors);
    ("scop of GEMM", `Quick, test_scop_gemm);
    ("scop feeds dependence analysis", `Quick, test_scop_dependence_integration);
    ("scop rejects non-affine", `Quick, test_scop_rejects_nonaffine);
    ("recognize plain GEMM", `Quick, test_recognize_plain);
    ("recognize symbolic sizes", `Quick, test_recognize_symbolic);
    ("recognize batched (Fig 3)", `Quick, test_recognize_batched);
    ("recognize prologue (Fig 12a)", `Quick, test_recognize_prologue);
    ("recognize epilogue (Fig 12b)", `Quick, test_recognize_epilogue);
    ("recognition rejects non-GEMM", `Quick, test_recognize_rejects);
    ("C source to verified kernel", `Quick, test_source_to_verified_kernel);
    ("C source to verified fused kernel", `Quick, test_source_to_verified_fused);
  ]

(* ------------------------------------------------------------------ *)
(* Transposed-operand recognition                                       *)
(* ------------------------------------------------------------------ *)

let test_recognize_transposed () =
  let src =
    {|
void gemm_tn(double A[16][16], double B[8][16], double C[16][8]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 16; k++)
        C[i][j] = C[i][j] + A[k][i] * B[j][k];
}
|}
  in
  let spec = ok (Extract.spec_of_source src) in
  Alcotest.(check bool) "ta" true spec.Sw_core.Spec.ta;
  Alcotest.(check bool) "tb" true spec.Sw_core.Spec.tb;
  check Alcotest.int "m" 16 spec.Sw_core.Spec.m;
  check Alcotest.int "n" 8 spec.Sw_core.Spec.n;
  (* and the full workflow still verifies *)
  let compiled = compile_exn ~config:(Config.tiny ()) spec in
  match Sw_core.Runner.verify compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Sw_core.Runner.error_to_string e)

let tests = tests @ [ ("recognize transposed GEMM", `Quick, test_recognize_transposed) ]

(* ------------------------------------------------------------------ *)
(* Direct interpretation: the loop nest as written is the oracle        *)
(* ------------------------------------------------------------------ *)

open Sw_blas

let test_direct_matches_reference () =
  let f = Parser.parse gemm_src in
  let a = Matrix.random ~rows:16 ~cols:16 ~seed:1 in
  let b = Matrix.random ~rows:16 ~cols:8 ~seed:2 in
  let c = Matrix.random ~rows:16 ~cols:8 ~seed:3 in
  let cref = Matrix.copy c in
  Exec.run f ~arrays:[ ("A", a); ("B", b); ("C", c) ];
  Dgemm.gemm ~alpha:1.0 ~beta:1.0 ~a ~b ~c:cref;
  Helpers.check_close "direct = reference" 0.0 (Matrix.max_abs_diff cref c)

let test_direct_matches_pipeline () =
  (* the promised equivalence: running the C source as written equals
     running the generated, optimized kernel on the simulated cluster *)
  let src = fused_epilogue_src in
  let f = Parser.parse src in
  let a = Matrix.random ~rows:16 ~cols:16 ~seed:4 in
  let b = Matrix.random ~rows:16 ~cols:16 ~seed:5 in
  let c = Matrix.random ~rows:16 ~cols:16 ~seed:6 in
  (* direct path *)
  let c_direct = Matrix.copy c in
  Exec.run f ~arrays:[ ("A", Matrix.copy a); ("B", Matrix.copy b); ("C", c_direct) ];
  (* pipeline path *)
  let spec = ok (Extract.spec_of_source src) in
  let config = Config.tiny () in
  let compiled = compile_exn ~config spec in
  let c_pipeline =
    match
      Sw_core.Runner.simulate ~config compiled.Sw_core.Compile.program
        ~operands:[ ("A", [| a |]); ("B", [| b |]); ("C", [| c |]) ]
    with
    | Ok (_, mem) -> (Sw_core.Runner.read mem "C" ~rows:16 ~cols:16).(0)
    | Error e -> Alcotest.failf "no races: %s" (Sw_arch.Error.to_string e)
  in
  Helpers.check_close "direct = pipeline" 0.0
    (Matrix.max_abs_diff c_direct c_pipeline)

let test_direct_batched_and_symbolic () =
  let f = Parser.parse batched_src in
  let mk seed = Matrix.random ~rows:(4 * 16) ~cols:16 ~seed in
  let a = mk 7 and b = mk 8 and c = mk 9 in
  let cref = Matrix.copy c in
  Exec.run f ~arrays:[ ("A", a); ("B", b); ("C", c) ];
  (* per-batch reference *)
  for bi = 0 to 3 do
    let slice m = Matrix.sub_matrix m ~row:(bi * 16) ~col:0 ~rows:16 ~cols:16 in
    let cs = slice cref in
    Dgemm.gemm ~alpha:1.0 ~beta:1.0 ~a:(slice a) ~b:(slice b) ~c:cs;
    Matrix.blit_into ~src:cs ~dst:cref ~row:(bi * 16) ~col:0
  done;
  Helpers.check_close "batched direct" 0.0 (Matrix.max_abs_diff cref c);
  (* symbolic sizes need bindings *)
  let g = Parser.parse gemm_sym_src in
  let a = Matrix.random ~rows:4 ~cols:4 ~seed:1 in
  let b = Matrix.random ~rows:4 ~cols:4 ~seed:2 in
  let c = Matrix.create ~rows:4 ~cols:4 in
  Exec.run g
    ~bindings:[ ("M", 4); ("N", 4); ("K", 4) ]
    ~fbindings:[ ("alpha", 2.0) ]
    ~arrays:[ ("A", a); ("B", b); ("C", c) ];
  let cref = Matrix.create ~rows:4 ~cols:4 in
  Dgemm.gemm ~alpha:2.0 ~beta:0.0 ~a ~b ~c:cref;
  Helpers.check_close "symbolic direct" 0.0 (Matrix.max_abs_diff cref c)

let test_direct_bounds_checked () =
  let src =
    "void f(double A[4][4]) { for (int i = 0; i < 5; i++) A[i][0] = 1.0; }"
  in
  let f = Parser.parse src in
  let a = Matrix.create ~rows:4 ~cols:4 in
  match Exec.run f ~arrays:[ ("A", a) ] with
  | exception Exec.Exec_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds write accepted"

let exec_tests =
  [
    ("direct interpretation = reference", `Quick, test_direct_matches_reference);
    ("direct = optimized pipeline", `Quick, test_direct_matches_pipeline);
    ("direct batched + symbolic", `Quick, test_direct_batched_and_symbolic);
    ("direct interpretation bounds-checked", `Quick, test_direct_bounds_checked);
  ]

let tests = tests @ exec_tests
