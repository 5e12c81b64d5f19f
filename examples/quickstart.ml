(* Quickstart: the paper's promise end to end.

   Write the naive 3-loop GEMM in C, let the compiler do everything else:
   polyhedral analysis, compute decomposition, automatic DMA/RMA insertion,
   two-level latency hiding, micro-kernel integration. The generated code
   is then (1) executed functionally on the simulated cluster and checked
   against a reference DGEMM, and (2) timed on the SW26010Pro machine
   model.

   Run with:  dune exec examples/quickstart.exe *)

open Sw_core
open Sw_arch

let source =
  {|
void gemm(double A[2048][2048], double B[2048][2048], double C[2048][2048]) {
  for (int i = 0; i < 2048; i++)
    for (int j = 0; j < 2048; j++)
      for (int k = 0; k < 2048; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
|}

let () =
  print_endline "== swgemm quickstart ==";
  print_endline "input C code:";
  print_string source;

  (* 1. front-end: recognize the GEMM pattern *)
  let spec =
    match Sw_frontend.Extract.spec_of_source source with
    | Ok s -> s
    | Error e -> failwith e
  in
  Printf.printf "\nrecognized: %s\n" (Spec.to_string spec);

  (* 2. compile for the SW26010Pro model, timing the generation (§8.5) *)
  let config = Config.sw26010pro in
  let session = Session.create ~arch:config () in
  let compiled, gen_s =
    Compile.generation_seconds (fun () -> Compile.run_exn session spec)
  in
  Printf.printf "generated athread code in %.1f ms (vs months by hand, §8.5)\n"
    (1000.0 *. gen_s);
  Printf.printf "decomposition: %s\n" (Tile_model.to_string compiled.Compile.tiles);
  Printf.printf "SPM per CPE: %d bytes of %d (the nine buffers of §6.3)\n\n"
    (Sw_ast.Ast.spm_bytes compiled.Compile.program)
    config.Config.spm_bytes;

  (* 3. functional validation: the same problem at reduced scale runs on a
     2x2-mesh cluster simulation with real data movement *)
  let tiny = Config.tiny () in
  let small =
    Compile.run_exn (Session.create ~arch:tiny ()) (Spec.make ~m:16 ~n:16 ~k:16 ())
  in
  (match Runner.verify small with
  | Ok () -> print_endline "functional check vs reference DGEMM: PASSED"
  | Error e -> failwith ("functional check FAILED: " ^ Runner.error_to_string e));

  (* 4. performance on the machine model, vs the xMath baseline *)
  let p = Runner.measure compiled in
  let x = Sw_xmath.Xmath.measure config compiled.Compile.spec in
  Printf.printf "\nsimulated performance at 2048^3:\n";
  Printf.printf "  generated code: %8.2f Gflops (%.1f%% of peak)\n"
    p.Runner.gflops
    (100.0 *. p.Runner.gflops /. Config.peak_gflops config);
  Printf.printf "  xMath library:  %8.2f Gflops (%.1f%% of peak)\n"
    x.Sw_xmath.Xmath.gflops
    (100.0 *. x.Sw_xmath.Xmath.gflops /. Config.peak_gflops config);

  (* 5. show a slice of the generated CPE code *)
  print_endline "\nfirst lines of the generated CPE file:";
  let cpe = Cemit.cpe_file compiled in
  String.split_on_char '\n' cpe
  |> List.filteri (fun i _ -> i < 34)
  |> List.iter print_endline;
  print_endline "  ..."
