(* DL fusion patterns (§7.3, §8.4): a quantized linear layer.

   The motivating DL workload of the paper: a GEMM whose input activations
   are quantized (element-wise prologue on A) and whose output goes through
   an activation function (element-wise epilogue on C). The compiler fuses
   both patterns into the generated CPE code, while the library baseline
   must run them as separate MPE passes around an xMath call.

   Run with:  dune exec examples/dl_fusion.exe *)

open Sw_core
open Sw_arch

let config = Config.sw26010pro
let peak = Config.peak_gflops config
let session = Session.create ~arch:config ()

let layer_shapes =
  (* (batch tokens x features) x (features x hidden) projections *)
  [ (2048, 2048, 5120); (4096, 4096, 10240); (8192, 8192, 8192) ]

let report name spec =
  let compiled = Compile.run_exn session spec in
  let ours = (Runner.measure compiled).Runner.gflops in
  let lib = (Sw_xmath.Xmath.measure config spec).Sw_xmath.Xmath.gflops in
  Printf.printf "  %-28s ours %8.2f Gflops (%4.1f%%)  baseline %8.2f Gflops  -> %.2fx\n"
    name ours
    (100.0 *. ours /. peak)
    lib (ours /. lib)

let () =
  print_endline "== DL fusion patterns (paper §8.4) ==";
  print_endline
    "baseline = xMath GEMM + element-wise pass executed on the MPE\n";
  List.iter
    (fun (m, n, k) ->
      Printf.printf "layer %dx%dx%d:\n" m n k;
      report "plain GEMM" (Spec.make ~m ~n ~k ());
      report "quantization prologue" (Spec.make ~fusion:(Spec.Prologue "quant") ~m ~n ~k ());
      report "tanh epilogue" (Spec.make ~fusion:(Spec.Epilogue "tanh") ~m ~n ~k ());
      report "relu epilogue" (Spec.make ~fusion:(Spec.Epilogue "relu") ~m ~n ~k ());
      print_newline ())
    layer_shapes;

  (* functional sanity at reduced scale: fused code must match the fused
     reference bit-for-bit up to floating-point tolerance *)
  let tiny = Session.create ~arch:(Config.tiny ()) () in
  List.iter
    (fun fusion ->
      let spec = Spec.make ~fusion ~m:16 ~n:16 ~k:16 () in
      match Runner.verify (Compile.run_exn tiny spec) with
      | Ok () ->
          Printf.printf "functional check (%s): PASSED\n" (Spec.to_string spec)
      | Error e -> failwith (Runner.error_to_string e))
    [ Spec.Prologue "quant"; Spec.Epilogue "tanh" ];

  print_endline
    "\nnote: prologue fusion pays the recomputation of the quantization\n\
     along the j dimension (§8.4) — visible as the lower Gflops numbers\n\
     for wide layers; epilogue fusion is recomputation-free."
