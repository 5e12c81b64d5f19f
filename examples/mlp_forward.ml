(* A two-layer MLP forward pass, end to end.

   hidden = tanh(X * W1)        -- GEMM fused with a tanh epilogue
   logits = quant(hidden) * W2  -- GEMM fused with a quantization prologue

   Each layer is one generated kernel; the functional simulation chains the
   two layers through main memory exactly as an inference runtime would,
   and the result is compared against a plain OCaml forward pass. This is
   the "DL workloads" motivation of the paper's introduction made concrete.

   Run with:  dune exec examples/mlp_forward.exe *)

open Sw_core
open Sw_arch
open Sw_blas

let config = Config.tiny () (* functional run at reduced scale *)
let session = Session.create ~arch:config ()

(* one generated, simulated, verified layer: C = fn-fused GEMM *)
let run_layer ~fusion ~a ~b ~out_rows ~out_cols =
  let spec =
    Spec.make ~beta:0.0 ~fusion ~m:out_rows ~n:out_cols ~k:a.Matrix.cols ()
  in
  let compiled = Compile.run_exn session spec in
  (* beta = 0: C starts as the zero array simulate allocates *)
  match
    Runner.simulate ~config compiled.Compile.program
      ~operands:[ ("A", [| a |]); ("B", [| b |]) ]
  with
  | Ok (r, mem) ->
      ( (Runner.read mem "C" ~rows:out_rows ~cols:out_cols).(0),
        r.Interp.seconds )
  | Error e -> failwith (Error.to_string e)

let () =
  print_endline "== two-layer MLP forward pass on the simulated cluster ==\n";
  let batch_tokens = 24 and d_in = 16 and d_hidden = 20 and d_out = 12 in
  let x = Matrix.random ~rows:batch_tokens ~cols:d_in ~seed:1 in
  let w1 = Matrix.random ~rows:d_in ~cols:d_hidden ~seed:2 in
  let w2 = Matrix.random ~rows:d_hidden ~cols:d_out ~seed:3 in

  (* layer 1: hidden = tanh(X W1), fused epilogue *)
  let hidden, t1 =
    run_layer ~fusion:(Spec.Epilogue "tanh") ~a:x ~b:w1 ~out_rows:batch_tokens
      ~out_cols:d_hidden
  in
  (* layer 2: logits = quant(hidden) W2, fused prologue *)
  let logits, t2 =
    run_layer ~fusion:(Spec.Prologue "quant") ~a:hidden ~b:w2
      ~out_rows:batch_tokens ~out_cols:d_out
  in
  Printf.printf "layer 1 (tanh epilogue):  %.1f us simulated\n" (1e6 *. t1);
  Printf.printf "layer 2 (quant prologue): %.1f us simulated\n" (1e6 *. t2);

  (* reference forward pass in plain OCaml *)
  let href = Matrix.create ~rows:batch_tokens ~cols:d_hidden in
  Dgemm.fused_epilogue ~fn:"tanh" ~alpha:1.0 ~beta:0.0 ~a:x ~b:w1 ~c:href;
  let lref = Matrix.create ~rows:batch_tokens ~cols:d_out in
  Dgemm.fused_prologue ~fn:"quant" ~alpha:1.0 ~beta:0.0 ~a:href ~b:w2 ~c:lref;

  let diff = Matrix.max_abs_diff lref logits in
  Printf.printf "\nmax |difference| vs reference forward pass: %.3e\n" diff;
  if diff > 1e-9 then failwith "MLP forward pass mismatch"
  else print_endline "MLP forward pass: PASSED";

  (* headline: what the same two layers cost at production scale *)
  let big = Config.sw26010pro in
  let big_session = Session.create ~arch:big () in
  print_endline "\nat production scale (4096 tokens, 8192 -> 8192 -> 8192):";
  List.iter
    (fun (name, fusion) ->
      let spec = Spec.make ~beta:0.0 ~fusion ~m:4096 ~n:8192 ~k:8192 () in
      let ours =
        (Runner.measure (Compile.run_exn big_session spec)).Runner.gflops
      in
      let baseline = (Sw_xmath.Xmath.measure big spec).Sw_xmath.Xmath.gflops in
      Printf.printf "  %-24s %8.2f Gflops fused vs %8.2f library+MPE (%.2fx)\n"
        name ours baseline (ours /. baseline))
    [
      ("tanh-epilogue layer", Spec.Epilogue "tanh");
      ("quant-prologue layer", Spec.Prologue "quant");
    ]
