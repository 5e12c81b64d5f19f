(* End-to-end tests of the compilation pipeline: every generated variant is
   executed functionally on the simulated cluster and compared against the
   reference DGEMM. *)

open Sw_core
open Sw_arch

let compile_exn = Helpers.compile_exn

let check = Alcotest.check
let qtest = Helpers.qtest

let tiny = Config.tiny () (* 2x2 mesh, 4x4x2 micro kernel *)

let compile ?options spec = compile_exn ?options ~config:tiny spec

let expect_ok ?seed compiled =
  match Runner.verify ?seed compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Runner.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Spec / tile model                                                    *)
(* ------------------------------------------------------------------ *)

let test_spec_padding () =
  let s = Spec.make ~m:10 ~n:9 ~k:5 () in
  let p = Spec.pad_for s tiny in
  (* mesh tile 8x8, panel 4 *)
  check Alcotest.int "m padded" 16 p.Spec.m;
  check Alcotest.int "n padded" 16 p.Spec.n;
  check Alcotest.int "k padded" 8 p.Spec.k;
  Alcotest.(check bool) "aligned after pad" true (Spec.is_aligned p tiny);
  Alcotest.(check bool) "not aligned before" false (Spec.is_aligned s tiny)

let test_spec_validation () =
  (match Spec.make ~m:0 ~n:1 ~k:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "m=0 accepted");
  (match Spec.make ~batch:0 ~m:1 ~n:1 ~k:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch=0 accepted");
  List.iter
    (fun f ->
      if Spec.fusion_of_string (Spec.fusion_to_string f) <> Ok f then
        Alcotest.failf "fusion %s does not round-trip" (Spec.fusion_to_string f))
    [ Spec.No_fusion; Spec.Prologue "quant"; Spec.Epilogue "relu" ];
  List.iter
    (fun s ->
      if Result.is_ok (Spec.fusion_of_string s) then
        Alcotest.failf "fusion text %S accepted" s)
    [ ""; "relu"; "sideways:relu"; "prologue:a:b" ];
  match Spec.make ~fusion:(Spec.Prologue "nonsense") ~m:1 ~n:1 ~k:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown fusion kernel accepted"

let test_tile_model () =
  let s = Spec.make ~m:16 ~n:8 ~k:16 () in
  let t = Tile_model.choose s tiny in
  check Alcotest.int "tm" 4 t.Tile_model.tm;
  check Alcotest.int "mesh_m" 8 t.Tile_model.mesh_m;
  check Alcotest.int "panel" 4 t.Tile_model.panel_k;
  check Alcotest.int "nbi" 2 t.Tile_model.nbi;
  check Alcotest.int "nbj" 1 t.Tile_model.nbj;
  check Alcotest.int "nko" 4 t.Tile_model.nko;
  check Alcotest.int "nkt" 8 t.Tile_model.nkt;
  (* nine-buffer budget of §6.3 *)
  check Alcotest.int "spm bytes (hiding)"
    (8 * ((4 * 4) + (4 * ((4 * 2) + (2 * 4)))))
    (Tile_model.spm_bytes_needed t ~options:Options.all_on ~fusion:Spec.No_fusion)

let test_options () =
  (match Options.validate { Options.use_asm = true; use_rma = false; hiding = true } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "hiding without rma accepted");
  check Alcotest.int "four breakdown variants" 4 (List.length Options.breakdown)

(* ------------------------------------------------------------------ *)
(* Compilation structure                                                *)
(* ------------------------------------------------------------------ *)

let test_compile_structure () =
  let c = compile (Spec.make ~m:16 ~n:8 ~k:16 ()) in
  let prog = c.Compile.program in
  Alcotest.(check bool) "SPM within budget" true
    (Sw_ast.Ast.spm_bytes prog <= tiny.Config.spm_bytes);
  check Alcotest.int "three arrays" 3 (List.length prog.Sw_ast.Ast.arrays);
  (* the schedule tree validates and mentions the mark *)
  (match Sw_tree.Tree.validate c.Compile.tree with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rendered = Sw_tree.Tree.to_string c.Compile.tree in
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tree has micro kernel mark" true
    (contains "micro_kernel" rendered);
  Alcotest.(check bool) "tree has extensions" true (contains "EXTENSION" rendered)

let test_compile_rejects () =
  (* hiding without rma *)
  (match
     compile
       ~options:{ Options.use_asm = true; use_rma = false; hiding = true }
       (Spec.make ~m:8 ~n:8 ~k:8 ())
   with
  | exception Sw_arch.Error.Sim_error _ -> ()
  | _ -> Alcotest.fail "invalid options accepted")

(* ------------------------------------------------------------------ *)
(* Functional correctness, all variants                                 *)
(* ------------------------------------------------------------------ *)

let test_variant (vname, options) () =
  let spec = Spec.make ~m:16 ~n:8 ~k:16 () in
  let c = compile ~options spec in
  match Runner.verify c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" vname (Runner.error_to_string e)

let test_alpha_beta () =
  List.iter
    (fun (alpha, beta) ->
      let spec = Spec.make ~alpha ~beta ~m:8 ~n:8 ~k:8 () in
      expect_ok (compile spec))
    [ (1.0, 0.0); (2.0, 1.0); (0.5, -1.5); (1.0, 1.0); (-1.0, 0.25) ]

let test_multi_block () =
  (* several mesh blocks in both dimensions *)
  expect_ok (compile (Spec.make ~m:24 ~n:16 ~k:12 ()))

let test_single_panel () =
  (* K equal to one panel: the software pipeline degenerates (no steady
     iterations); the peeling must still be correct *)
  expect_ok (compile (Spec.make ~m:8 ~n:8 ~k:4 ()))

let test_two_panels () =
  expect_ok (compile (Spec.make ~m:8 ~n:8 ~k:8 ()))

let test_padding_roundtrip () =
  (* unaligned spec: the compiler pads; the padded result on random data
     restricted to the original region must equal the reference on the
     original region — here we simply verify the padded program (zeros in
     the padding keep the product exact) *)
  expect_ok (compile (Spec.make ~m:10 ~n:7 ~k:5 ()))

let test_batched () =
  let spec = Spec.make ~batch:3 ~m:8 ~n:8 ~k:8 () in
  expect_ok (compile spec)

let test_batched_all_variants () =
  List.iter
    (fun (vname, options) ->
      let spec = Spec.make ~batch:2 ~m:8 ~n:8 ~k:8 () in
      match Runner.verify (compile ~options spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" vname (Runner.error_to_string e))
    Options.breakdown

let test_fusion_prologue () =
  let spec = Spec.make ~fusion:(Spec.Prologue "quant") ~m:8 ~n:8 ~k:8 () in
  expect_ok (compile spec)

let test_fusion_epilogue () =
  List.iter
    (fun fn ->
      let spec = Spec.make ~fusion:(Spec.Epilogue fn) ~m:8 ~n:8 ~k:8 () in
      expect_ok (compile spec))
    [ "relu"; "tanh"; "sigmoid" ]

let test_fusion_with_beta () =
  let spec =
    Spec.make ~alpha:0.5 ~beta:2.0 ~fusion:(Spec.Epilogue "relu") ~m:8 ~n:8
      ~k:8 ()
  in
  expect_ok (compile spec)

let test_fusion_batched () =
  let spec =
    Spec.make ~batch:2 ~fusion:(Spec.Prologue "quant") ~m:8 ~n:8 ~k:8 ()
  in
  expect_ok (compile spec)

let prop_all_shapes_verify =
  qtest ~count:25 "random aligned shapes verify (full pipeline)"
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 5) (int_range 0 999))
    (fun (bm, bn, pk, seed) ->
      let spec = Spec.make ~m:(8 * bm) ~n:(8 * bn) ~k:(4 * pk) () in
      match Runner.verify ~seed (compile spec) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report (Runner.error_to_string e))

let prop_variants_agree =
  qtest ~count:10 "all four variants compute identical results"
    QCheck.(pair (int_range 1 2) (int_range 0 999))
    (fun (pk, seed) ->
      let spec = Spec.make ~m:8 ~n:8 ~k:(4 * pk) () in
      List.for_all
        (fun (_, options) ->
          match Runner.verify ~seed (compile ~options spec) with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_report (Runner.error_to_string e))
        Options.breakdown)

(* ------------------------------------------------------------------ *)
(* Timing and extrapolation                                             *)
(* ------------------------------------------------------------------ *)

let test_breakdown_ordering () =
  (* On a sufficiently deep problem the four variants must rank exactly as
     in Fig. 13: each added optimization speeds the code up. *)
  let spec = Spec.make ~m:16 ~n:16 ~k:32 () in
  let times =
    List.map
      (fun (vname, options) ->
        (vname, (Runner.measure_exact (compile ~options spec)).Runner.seconds))
      Options.breakdown
  in
  let rec decreasing = function
    | (na, a) :: ((nb, b) :: _ as rest) ->
        if a <= b then
          Alcotest.failf "%s (%.3g s) should be slower than %s (%.3g s)" na a
            nb b
        else decreasing rest
    | _ -> ()
  in
  decreasing times

let test_measure_exact_below_threshold () =
  (* below the op threshold [measure] is the exact simulation itself; the
     extrapolated path is checked on the real config in test_calibration *)
  List.iter
    (fun (m, n, k) ->
      let c = compile (Spec.make ~m ~n ~k ()) in
      let exact = Runner.measure_exact c and got = Runner.measure c in
      Alcotest.(check bool) "exact path" true got.Runner.exact;
      check (Alcotest.float 0.0) "seconds bit-equal" exact.Runner.seconds
        got.Runner.seconds)
    [ (16, 16, 64); (32, 32, 128) ]

let test_gflops_sane () =
  let spec = Spec.make ~m:16 ~n:16 ~k:32 () in
  let p = Runner.measure_exact (compile spec) in
  Alcotest.(check bool) "gflops positive" true (p.Runner.gflops > 0.0);
  Alcotest.(check bool) "below peak" true
    (p.Runner.gflops < Config.peak_gflops tiny)

let test_generation_cost () =
  (* §8.5: generation takes (milli)seconds, not months *)
  let _, secs =
    Compile.generation_seconds (fun () -> compile (Spec.make ~m:16 ~n:16 ~k:16 ()))
  in
  Alcotest.(check bool) "generation below 10 s" true (secs < 10.0)

let tests =
  [
    ("spec padding", `Quick, test_spec_padding);
    ("spec validation", `Quick, test_spec_validation);
    ("tile model", `Quick, test_tile_model);
    ("options", `Quick, test_options);
    ("compile structure", `Quick, test_compile_structure);
    ("compile rejects bad options", `Quick, test_compile_rejects);
    ("variant: dma-only", `Quick, test_variant (List.nth Options.breakdown 0));
    ("variant: +asm", `Quick, test_variant (List.nth Options.breakdown 1));
    ("variant: +rma", `Quick, test_variant (List.nth Options.breakdown 2));
    ("variant: +hiding", `Quick, test_variant (List.nth Options.breakdown 3));
    ("alpha/beta combinations", `Quick, test_alpha_beta);
    ("multiple mesh blocks", `Quick, test_multi_block);
    ("single k-panel", `Quick, test_single_panel);
    ("two k-panels", `Quick, test_two_panels);
    ("padding round trip", `Quick, test_padding_roundtrip);
    ("batched GEMM", `Quick, test_batched);
    ("batched, all variants", `Quick, test_batched_all_variants);
    ("fusion with prologue", `Quick, test_fusion_prologue);
    ("fusion with epilogue", `Quick, test_fusion_epilogue);
    ("fusion with alpha/beta", `Quick, test_fusion_with_beta);
    ("fusion batched", `Quick, test_fusion_batched);
    ("breakdown ordering (Fig 13 shape)", `Quick, test_breakdown_ordering);
    ("measure exact below op threshold", `Quick,
      test_measure_exact_below_threshold);
    ("gflops sanity", `Quick, test_gflops_sane);
    ("generation cost (§8.5)", `Quick, test_generation_cost);
    prop_all_shapes_verify;
    prop_variants_agree;
  ]

(* ------------------------------------------------------------------ *)
(* Transposed operands (op(A), op(B))                                   *)
(* ------------------------------------------------------------------ *)

let test_transposed_variants () =
  List.iter
    (fun (ta, tb) ->
      let spec = Spec.make ~ta ~tb ~m:16 ~n:8 ~k:16 () in
      match Runner.verify (compile spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ta=%b tb=%b: %s" ta tb (Runner.error_to_string e))
    [ (true, false); (false, true); (true, true) ]

let test_transposed_all_option_levels () =
  List.iter
    (fun (vname, options) ->
      let spec = Spec.make ~ta:true ~tb:true ~m:8 ~n:8 ~k:8 () in
      match Runner.verify (compile ~options spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" vname (Runner.error_to_string e))
    Options.breakdown

let test_transposed_fused_batched () =
  let spec =
    Spec.make ~ta:true ~batch:2 ~alpha:0.5 ~beta:2.0
      ~fusion:(Spec.Epilogue "relu") ~m:8 ~n:8 ~k:8 ()
  in
  expect_ok (compile spec)

let test_transposed_array_shapes () =
  let c = compile (Spec.make ~ta:true ~tb:true ~m:16 ~n:8 ~k:16 ()) in
  let dims name =
    (List.find
       (fun (a : Sw_ast.Ast.array_decl) -> a.Sw_ast.Ast.array_name = name)
       c.Compile.program.Sw_ast.Ast.arrays)
      .Sw_ast.Ast.dims
  in
  check (Alcotest.list Alcotest.int) "A stored k x m" [ 16; 16 ] (dims "A");
  check (Alcotest.list Alcotest.int) "B stored n x k" [ 8; 16 ] (dims "B")

let prop_transposes_agree_with_plain =
  qtest ~count:10 "transposed runs verify across shapes"
    QCheck.(triple (int_range 1 2) (int_range 1 3) (int_range 0 99))
    (fun (bm, pk, seed) ->
      let spec = Spec.make ~ta:true ~tb:true ~m:(8 * bm) ~n:8 ~k:(4 * pk) () in
      match Runner.verify ~seed (compile spec) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report (Runner.error_to_string e))

let transpose_tests =
  [
    ("transposed operand variants", `Quick, test_transposed_variants);
    ("transposed x option levels", `Quick, test_transposed_all_option_levels);
    ("transposed fused batched", `Quick, test_transposed_fused_batched);
    ("transposed array shapes", `Quick, test_transposed_array_shapes);
    prop_transposes_agree_with_plain;
  ]

let tests = tests @ transpose_tests

(* ------------------------------------------------------------------ *)
(* GEMV (§9: "easily adopted to general matrix-vector multiplication") *)
(* ------------------------------------------------------------------ *)

let test_gemv_verifies () =
  (* tiny config: row sweep = 4 * 2 * 2 = 16, panel = 4 *)
  List.iter
    (fun (m, n, alpha, beta) ->
      let spec = Gemv.make_spec ~alpha ~beta ~m ~n () in
      let compiled = Gemv.compile ~config:tiny spec in
      match Gemv.verify compiled with
      | Ok () -> ()
      | Error e -> Alcotest.failf "gemv %dx%d: %s" m n e)
    [ (16, 4, 1.0, 1.0); (32, 8, 2.0, 0.5); (16, 8, -1.0, 0.0); (48, 12, 0.5, 2.0) ]

let test_gemv_padding () =
  (* unaligned sizes are padded transparently *)
  let spec = Gemv.make_spec ~m:13 ~n:5 () in
  let compiled = Gemv.compile ~config:tiny spec in
  check Alcotest.int "m padded to the row sweep" 16 compiled.Gemv.spec.Gemv.vm;
  check Alcotest.int "n padded to the panel" 8 compiled.Gemv.spec.Gemv.vn;
  match Gemv.verify compiled with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_gemv_bandwidth_bound () =
  (* on the real machine model GEMV saturates the memory controller, far
     below compute peak: rate ~ bandwidth * 0.25 flops/byte *)
  let config = Config.sw26010pro in
  let spec = Gemv.make_spec ~m:8192 ~n:8192 () in
  let compiled = Gemv.compile ~config spec in
  let p = Gemv.measure compiled in
  let bw_bound = 0.25 *. config.Config.mem_bw_bytes_per_s /. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "gemv %.2f Gflops ~ bandwidth bound %.2f" p.Runner.gflops bw_bound)
    true
    (p.Runner.gflops < 1.05 *. bw_bound && p.Runner.gflops > 0.3 *. bw_bound);
  Alcotest.(check bool) "far below compute peak" true
    (p.Runner.gflops < 0.02 *. Config.peak_gflops config)

let gemv_tests =
  [
    ("gemv verifies", `Quick, test_gemv_verifies);
    ("gemv padding", `Quick, test_gemv_padding);
    ("gemv is bandwidth bound", `Quick, test_gemv_bandwidth_bound);
  ]

let tests = tests @ gemv_tests

(* ------------------------------------------------------------------ *)
(* Mesh-size generality: nothing in the pipeline assumes a mesh of 2    *)
(* (or 8); a 3x3 mesh exercises non-power-of-two strip-mining factors.  *)
(* ------------------------------------------------------------------ *)

let tiny3 = Config.tiny ~mesh:3 ~mk:(4, 4, 2) ()

let test_mesh3_verify () =
  (* mesh tile 12x12, panel 6 *)
  List.iter
    (fun (m, n, k) ->
      let spec = Spec.make ~m ~n ~k () in
      match Runner.verify (compile_exn ~config:tiny3 spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "3x3 mesh %dx%dx%d: %s" m n k (Runner.error_to_string e))
    [ (12, 12, 6); (24, 12, 12); (12, 24, 18); (36, 24, 30) ]

let test_mesh3_all_variants () =
  List.iter
    (fun (vname, options) ->
      let spec = Spec.make ~m:12 ~n:12 ~k:12 () in
      match Runner.verify (compile_exn ~options ~config:tiny3 spec) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "3x3 mesh %s: %s" vname (Runner.error_to_string e))
    Options.breakdown

let test_mesh3_batched_fused () =
  let spec =
    Spec.make ~batch:2 ~alpha:1.5 ~fusion:(Spec.Epilogue "relu") ~m:12 ~n:12
      ~k:6 ()
  in
  match Runner.verify (compile_exn ~config:tiny3 spec) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Runner.error_to_string e)

let test_mesh4_transposed () =
  let tiny4 = Config.tiny ~mesh:4 ~mk:(2, 2, 2) () in
  let spec = Spec.make ~ta:true ~m:16 ~n:8 ~k:16 () in
  match Runner.verify (compile_exn ~config:tiny4 spec) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Runner.error_to_string e)

let mesh_tests =
  [
    ("3x3 mesh verifies", `Quick, test_mesh3_verify);
    ("3x3 mesh, all variants", `Quick, test_mesh3_all_variants);
    ("3x3 mesh batched fused", `Quick, test_mesh3_batched_fused);
    ("4x4 mesh transposed", `Quick, test_mesh4_transposed);
  ]

let tests = tests @ mesh_tests

(* ------------------------------------------------------------------ *)
(* Tuner: the analytic model's choice wins the ladder search (§3.1)     *)
(* ------------------------------------------------------------------ *)

(* The paper-default candidate with its micro-kernel shape replaced. *)
let ladder_candidate ~config spec mk =
  { (Sw_tune.Space.default config spec) with Sw_tune.Space.mk }

let test_tuner_vendor_shape_wins () =
  let config = Config.sw26010pro in
  let spec = Spec.make ~m:4096 ~n:4096 ~k:4096 () in
  let (bm, bn, bk), bg =
    match Sw_tune.Search.ladder ~config spec with
    | _, Some best -> best
    | _, None -> Alcotest.fail "no ladder shape measured"
  in
  check (Alcotest.list Alcotest.int) "analytic choice is optimal" [ 64; 64; 32 ]
    [ bm; bn; bk ];
  Alcotest.(check bool) "best beats 1500 Gflops" true (bg > 1500.0);
  (* oversized shapes are rejected for SPM overflow *)
  Alcotest.(check bool) "128x128x64 infeasible" true
    (Result.is_error
       (Sw_tune.Space.realize ~config ~spec
          (ladder_candidate ~config spec (128, 128, 64))))

let test_tuner_report () =
  let config = Config.sw26010pro in
  let spec = Spec.make ~m:2048 ~n:2048 ~k:2048 () in
  let realize mk =
    Sw_tune.Space.realize ~config ~spec (ladder_candidate ~config spec mk)
  in
  (match realize (64, 64, 32) with
  | Ok rz ->
      Alcotest.(check bool) "mentions vendor" true
        (Helpers.contains rz.Sw_tune.Space.eff_note "vendor")
  | Error e -> Alcotest.fail e);
  match realize (128, 128, 64) with
  | Error e ->
      Alcotest.(check bool) "names the SPM overflow" true
        (Helpers.contains e "SPM")
  | Ok _ -> Alcotest.fail "128x128x64 realized"

let tuner_tests =
  [
    ("tuner: vendor shape wins", `Quick, test_tuner_vendor_shape_wins);
    ("tuner report", `Quick, test_tuner_report);
  ]

let tests = tests @ tuner_tests

(* ------------------------------------------------------------------ *)
(* Combined feature stress: every orthogonal feature at once            *)
(* ------------------------------------------------------------------ *)

let test_everything_at_once () =
  (* batched + transposed + scaled + fused, on a 3x3 mesh, all variants *)
  let spec =
    Spec.make ~batch:2 ~alpha:(-0.5) ~beta:1.5 ~ta:true ~tb:true
      ~fusion:(Spec.Epilogue "sigmoid") ~m:12 ~n:12 ~k:12 ()
  in
  List.iter
    (fun (vname, options) ->
      match
        Runner.verify (compile_exn ~options ~config:tiny3 spec)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" vname (Runner.error_to_string e))
    Options.breakdown

let tests =
  tests @ [ ("all features combined", `Quick, test_everything_at_once) ]

let test_degenerate_mesh1 () =
  (* regression: with a 1x1 mesh the strip-mine factor is 1 and the steady
     peeling branch degenerates to a constant contradiction; the code
     generator must prune the dead branch instead of emitting a broadcast
     whose root coordinate does not exist (found by randomized sweep) *)
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 2) () in
  List.iter
    (fun (vname, options) ->
      List.iter
        (fun spec ->
          match Runner.verify (compile_exn ~options ~config spec) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "mesh=1 %s: %s" vname (Runner.error_to_string e))
        [
          Spec.make ~m:4 ~n:4 ~k:8 ();
          Spec.make ~m:12 ~n:4 ~k:38 ~fusion:(Spec.Epilogue "relu") ();
          Spec.make ~m:16 ~n:20 ~k:30 ~tb:true ~batch:2
            ~fusion:(Spec.Epilogue "relu") ();
        ])
    Options.breakdown

let tests = tests @ [ ("degenerate 1x1 mesh", `Quick, test_degenerate_mesh1) ]
