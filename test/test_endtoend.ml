(* Cross-cutting end-to-end scenarios on the real SW26010Pro model:
   batched and fused comparisons against the library baseline (the §8.3 and
   §8.4 experiments at test scale), plus generated-program invariants. *)

open Sw_core
open Sw_xmath
open Sw_arch

let compile_exn = Helpers.compile_exn

let config = Config.sw26010pro

let measure ?options spec =
  (Runner.measure (compile_exn ?options ~config spec)).Runner.gflops

let lib spec = (Xmath.measure config spec).Xmath.gflops

let test_batched_beats_library () =
  (* §8.3: single mesh startup vs one per batch element; the advantage
     grows with batch size on small shapes *)
  let ratios =
    List.map
      (fun batch ->
        let spec = Spec.make ~batch ~m:4096 ~n:4096 ~k:3072 () in
        measure spec /. lib spec)
      [ 2; 4; 8; 16 ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "ours ahead" true (r > 1.0))
    ratios;
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "advantage grows with batch" true (increasing ratios)

let test_batched_large_shape_close () =
  (* on one large batched shape the library is competitive (startup
     amortized; paper: 93.52% vs 90.43% at 4096x4096x16384, batch 2) *)
  let spec = Spec.make ~batch:2 ~m:4096 ~n:4096 ~k:16384 () in
  let ours = measure spec and theirs = lib spec in
  Alcotest.(check bool) "library ahead on k=16384" true (theirs > ours);
  Alcotest.(check bool) "within 15%" true (ours /. theirs > 0.85)

let test_fusion_epilogue_dominates () =
  (* §8.4: fusion with epilogue steadily outperforms the library-based
     implementation (paper: 2.11x mean) *)
  List.iter
    (fun (m, n, k) ->
      let spec = Spec.make ~fusion:(Spec.Epilogue "tanh") ~m ~n ~k () in
      let r = measure spec /. lib spec in
      Alcotest.(check bool)
        (Printf.sprintf "epilogue fusion ahead at %dx%dx%d (%.2fx)" m n k r)
        true (r > 1.3))
    [ (4096, 4096, 4096); (8192, 8192, 8192); (6144, 6144, 6144) ]

let test_fusion_prologue_mixed () =
  (* prologue fusion wins on most shapes but recomputation makes the
     advantage smaller (paper: 1.26x mean, baseline occasionally ahead) *)
  let spec = Spec.make ~fusion:(Spec.Prologue "quant") ~m:4096 ~n:4096 ~k:4096 () in
  let r = measure spec /. lib spec in
  Alcotest.(check bool) "prologue fusion ahead" true (r > 1.0);
  Alcotest.(check bool) "but less than epilogue's factor" true (r < 2.0)

let test_fused_slower_than_plain () =
  (* fusing the prologue costs per-step element-wise work on the CPEs *)
  let plain = measure (Spec.make ~m:4096 ~n:4096 ~k:4096 ()) in
  let fused =
    measure (Spec.make ~fusion:(Spec.Prologue "quant") ~m:4096 ~n:4096 ~k:4096 ())
  in
  Alcotest.(check bool) "prologue costs something" true (fused < plain);
  Alcotest.(check bool) "but not catastrophic" true (fused > 0.75 *. plain)

let test_program_free_params () =
  (* generated SPMD code references only the mesh coordinates as free
     parameters — sizes are baked in *)
  let c = compile_exn ~config (Spec.make ~m:512 ~n:512 ~k:256 ()) in
  Alcotest.(check (Alcotest.list Alcotest.string))
    "no free parameters" []
    (Sw_ast.Ast.free_params c.Compile.program)

let test_program_op_density () =
  (* the generated program is tile-granular: op count grows with trip
     counts, not with matrix elements *)
  let rec count block =
    List.fold_left
      (fun acc (s : Sw_ast.Ast.stmt) ->
        match s with
        | For { body; _ } | Let { body; _ } | If { body; _ } -> acc + count body
        | Op _ | User _ -> acc + 1
        | Comment _ -> acc)
      0 block
  in
  let ops spec = count (compile_exn ~config spec).Compile.program.Sw_ast.Ast.body in
  let small = ops (Spec.make ~m:512 ~n:512 ~k:256 ()) in
  let large = ops (Spec.make ~m:512 ~n:512 ~k:2048 ()) in
  let huge = ops (Spec.make ~m:4096 ~n:4096 ~k:16384 ()) in
  Alcotest.(check bool) "static op count is modest" true (small < 200);
  (* a single-panel program has no steady branch at all (dead-code
     eliminated); deeper K adds the statically bounded steady subtree once *)
  Alcotest.(check bool) "peeling adds statically bounded ops" true
    (large <= small + 80);
  Alcotest.(check int) "independent of problem size beyond that" large huge

let test_c_dump_runs () =
  (* schedule tree and AST render without exceptions and are non-trivial *)
  let c = compile_exn ~config (Spec.make ~m:512 ~n:512 ~k:512 ()) in
  let tree = Sw_tree.Tree.to_string c.Compile.tree in
  let ast = Sw_ast.Ast.to_string c.Compile.program.Sw_ast.Ast.body in
  Alcotest.(check bool) "tree dump" true (String.length tree > 500);
  Alcotest.(check bool) "ast dump" true (String.length ast > 500)

let tests =
  [
    ("batched beats the library (§8.3)", `Quick, test_batched_beats_library);
    ("batched large shape close", `Quick, test_batched_large_shape_close);
    ("epilogue fusion dominates (§8.4)", `Quick, test_fusion_epilogue_dominates);
    ("prologue fusion mixed (§8.4)", `Quick, test_fusion_prologue_mixed);
    ("prologue recomputation cost", `Quick, test_fused_slower_than_plain);
    ("no free parameters in programs", `Quick, test_program_free_params);
    ("tile-granular op density", `Quick, test_program_op_density);
    ("dumps render", `Quick, test_c_dump_runs);
  ]
