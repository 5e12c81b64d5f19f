(* Linpack, the paper's opening motivation: "the Linpack benchmark used to
   rank supercomputers relies heavily on the efficient implementation of
   GEMM" (§1).

   Part 1 (functional): a blocked LU factorization whose trailing updates
   run through the *generated, simulated* GEMM kernel — the solver's
   residual proves the generated code correct inside a real consumer.

   Part 2 (performance): an HPL-style estimate — LU is (2/3)n^3 flops
   dominated by trailing-update GEMMs, so the achievable Linpack rate is
   essentially the GEMM rate the generator reaches.

   Run with:  dune exec examples/linpack.exe *)

open Sw_core
open Sw_arch
open Sw_blas

let tiny = Config.tiny ()
let tiny_session = Session.create ~arch:tiny ()

(* C := C - A x B through the compiled kernel on the simulated cluster. *)
let simulated_gemm_update ~(a : Matrix.t) ~(b : Matrix.t) ~(c : Matrix.t) =
  let spec =
    Spec.make ~alpha:(-1.0) ~beta:1.0 ~m:c.Matrix.rows ~n:c.Matrix.cols
      ~k:a.Matrix.cols ()
  in
  let compiled = Compile.run_exn tiny_session spec in
  match
    Runner.simulate ~config:tiny compiled.Compile.program
      ~operands:[ ("A", [| a |]); ("B", [| b |]); ("C", [| c |]) ]
  with
  | Ok (_, mem) ->
      let got = Runner.read mem "C" ~rows:c.Matrix.rows ~cols:c.Matrix.cols in
      Matrix.blit_into ~src:got.(0) ~dst:c ~row:0 ~col:0
  | Error e -> failwith (Error.to_string e)

let () =
  print_endline "== Linpack driven by the generated GEMM ==\n";

  (* Part 1: solve a 64x64 system; every trailing update is a generated
     kernel executed with real data movement on the simulated cluster. *)
  let n = 64 in
  let a = Lu.diagonally_dominant ~n ~seed:2026 in
  let x_true = Array.init n (fun i -> sin (float_of_int i)) in
  let rhs =
    Array.init n (fun i ->
        let s = ref 0.0 in
        for j = 0 to n - 1 do
          s := !s +. (Matrix.get a i j *. x_true.(j))
        done;
        !s)
  in
  let lu = Matrix.copy a in
  Lu.blocked_factor ~bs:16 ~gemm:simulated_gemm_update lu;
  let x = Lu.solve ~lu ~b:rhs in
  let res = Lu.residual ~a ~x ~b:rhs in
  Printf.printf "blocked LU (n = %d, bs = 16) with simulated-GEMM updates\n" n;
  Printf.printf "  max |Ax - b| = %.3e\n" res;
  if res > 1e-8 then failwith "Linpack residual too large"
  else print_endline "  solver: PASSED\n";

  (* Part 2: HPL-style projection on the real machine model. *)
  let session = Session.create ~arch:Config.sw26010pro () in
  print_endline "HPL-style projection (one cluster):";
  Printf.printf "  %-10s %16s %18s\n" "n" "GEMM (Gflops)" "est. HPL time (s)";
  List.iter
    (fun nn ->
      let spec = Spec.make ~m:nn ~n:nn ~k:nn () in
      let g = (Runner.measure (Compile.run_exn session spec)).Runner.gflops in
      let hpl_flops = 2.0 /. 3.0 *. (float_of_int nn ** 3.0) in
      Printf.printf "  %-10d %16.2f %18.2f\n" nn g (hpl_flops /. (g *. 1e9)))
    [ 8192; 15360; 32768 ];
  print_endline
    "\n(the factorization's panel work is O(n^2 b) against O(n^3) of GEMM,\n\
     so sustained Linpack rate ~ the generated kernel's GEMM rate)"
