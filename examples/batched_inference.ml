(* Batched GEMM (§3, §8.3): multi-head attention projections.

   A transformer inference step multiplies many small/medium matrices with
   identical shapes — the batched GEMM pattern. The compiler isolates the
   batch dimension (Fig. 3) and iterates it inside each CPE, so the mesh is
   spawned once; the xMath baseline has no batched interface and pays one
   mesh launch (plus library dispatch) per batch element.

   Run with:  dune exec examples/batched_inference.exe *)

open Sw_core
open Sw_arch

let config = Config.sw26010pro
let session = Session.create ~arch:config ()

let () =
  print_endline "== batched GEMM: attention-style workloads (paper §8.3) ==\n";
  Printf.printf "%-34s %14s %14s %9s\n" "workload" "ours (Gflops)" "xMath (Gflops)" "speedup";
  List.iter
    (fun (batch, m, n, k) ->
      let spec = Spec.make ~batch ~m ~n ~k () in
      let compiled = Compile.run_exn session spec in
      let ours = (Runner.measure compiled).Runner.gflops in
      let lib = (Sw_xmath.Xmath.measure config spec).Sw_xmath.Xmath.gflops in
      Printf.printf "%-34s %14.2f %14.2f %8.2fx\n"
        (Printf.sprintf "batch=%-2d %dx%dx%d" batch m n k)
        ours lib (ours /. lib))
    [
      (* heads x (sequence x head_dim x sequence)-style products; K mostly
         not a power of two, as in §8.3 *)
      (16, 2048, 2048, 3072);
      (8, 2048, 2048, 5120);
      (4, 4096, 4096, 6144);
      (4, 4096, 4096, 7680);
      (2, 4096, 4096, 16384);
      (2, 8192, 8192, 10240);
    ];

  (* the crossover the paper reports: for one large power-of-two-K shape
     the library stays ahead even with the per-batch startups *)
  print_endline
    "\nthe 4096x4096x16384 row shows the paper's observation: with K = 16384\n\
     the library's hand-tuned kernel amortizes its per-batch startups and\n\
     stays slightly ahead; everywhere else the single mesh launch and the\n\
     stable generated kernel win.\n";

  (* functional check of a batched run at reduced scale *)
  let tiny = Config.tiny () in
  match
    Runner.verify
      (Compile.run_exn (Session.create ~arch:tiny ())
         (Spec.make ~batch:3 ~m:16 ~n:8 ~k:12 ()))
  with
  | Ok () -> print_endline "functional check (batch=3): PASSED"
  | Error e -> failwith (Runner.error_to_string e)
