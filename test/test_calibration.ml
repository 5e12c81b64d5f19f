(* Calibration guard: the SW26010Pro machine model was tuned once against
   the paper's reported numbers (§8.1-§8.2) and is then frozen. These tests
   pin the model inside the documented bands so that accidental constant
   changes are caught. All runs use block-periodic extrapolation and are
   fast. *)

open Sw_core
open Sw_xmath
open Sw_arch

let compile_exn = Helpers.compile_exn

let config = Config.sw26010pro
let peak = Config.peak_gflops config

let gflops ?(options = Options.all_on) ~m ~n ~k () =
  let c = compile_exn ~options ~config (Spec.make ~m ~n ~k ()) in
  (Runner.measure c).Runner.gflops

let in_band name lo hi x =
  if x < lo || x > hi then
    Alcotest.failf "%s: %.2f outside [%.2f, %.2f]" name x lo hi

let test_peak () =
  Helpers.check_close ~tol:1e-9 "peak 2273.28" 2273.28 peak

let test_headline_efficiency () =
  (* the paper's headline: 90.14% of peak at the largest square shape *)
  let g = gflops ~m:15360 ~n:15360 ~k:15360 () in
  in_band "15360^3 fraction of peak" 0.89 0.915 (g /. peak)

let test_breakdown_bands () =
  (* §8.1 (means 84.89 / 240.39 / 1052.94 / 1849.06 over their shapes); we
     pin each variant at a large representative shape within a generous
     band around the paper's large-shape values *)
  let at options = gflops ~options ~m:8192 ~n:8192 ~k:8192 () in
  in_band "dma-only" 60.0 110.0 (at Options.baseline);
  in_band "+asm" 200.0 300.0 (at Options.with_asm);
  in_band "+rma" 900.0 1150.0 (at Options.with_rma);
  in_band "+hiding" 1800.0 2100.0 (at Options.all_on)

let test_breakdown_factors () =
  (* relative speedups of the optimizations (paper: 2.83x, 4.38x, 1.76x) *)
  let at options = gflops ~options ~m:8192 ~n:8192 ~k:8192 () in
  let v1 = at Options.baseline
  and v2 = at Options.with_asm
  and v3 = at Options.with_rma
  and v4 = at Options.all_on in
  in_band "asm factor" 2.0 4.5 (v2 /. v1);
  in_band "rma factor" 3.0 5.0 (v3 /. v2);
  in_band "hiding factor" 1.5 2.2 (v4 /. v3);
  in_band "total factor" 15.0 30.0 (v4 /. v1)

let test_small_k_penalty () =
  (* §8.1: the leftmost (small) shapes stay under 1800 Gflops because only
     ceil(K/256) - 1 DMA overlaps exist *)
  let small = gflops ~m:512 ~n:512 ~k:512 () in
  Alcotest.(check bool) "512^3 under 1800" true (small < 1800.0);
  let large = gflops ~m:8192 ~n:8192 ~k:8192 () in
  Alcotest.(check bool) "large >> small" true (large > small +. 500.0)

let test_monotone_in_k () =
  (* more DMA overlaps -> better efficiency, saturating *)
  let g k = gflops ~m:4096 ~n:4096 ~k () in
  let seq = List.map g [ 512; 1024; 2048; 4096; 8192 ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone saturation" true (increasing seq)

let test_vs_xmath_headline () =
  (* ours vs the library across a mixed shape set: paper reports +9.44%
     overall; we accept a band of +3%..+20% *)
  let shapes =
    [
      (4096, 4096, 4096);
      (6144, 6144, 6144);
      (8192, 8192, 8192);
      (4096, 16384, 16384);
      (8192, 8192, 15360);
      (10240, 10240, 10240);
    ]
  in
  let ratio =
    List.fold_left
      (fun acc (m, n, k) ->
        let ours = gflops ~m ~n ~k () in
        let lib = (Xmath.measure config (Spec.make ~m ~n ~k ())).Xmath.gflops in
        acc +. (ours /. lib))
      0.0 shapes
    /. float_of_int (List.length shapes)
  in
  in_band "mean speedup over xMath" 1.03 1.45 ratio

let test_xmath_wins_where_paper_says () =
  (* the library stays ahead on small squares and at K = 16384 *)
  let ours_small = gflops ~m:512 ~n:512 ~k:512 () in
  let lib_small =
    (Xmath.measure config (Spec.make ~m:512 ~n:512 ~k:512 ())).Xmath.gflops
  in
  Alcotest.(check bool) "xMath ahead at 512^3" true (lib_small > ours_small);
  let ours_16384 = gflops ~m:4096 ~n:16384 ~k:16384 () in
  let lib_16384 =
    (Xmath.measure config (Spec.make ~m:4096 ~n:16384 ~k:16384 ())).Xmath.gflops
  in
  Alcotest.(check bool) "xMath ahead at K=16384" true (lib_16384 > ours_16384);
  (* but by at most ~10% (paper: 7.32% loss) *)
  Alcotest.(check bool) "loss bounded" true
    (ours_16384 /. lib_16384 > 0.85)

let test_ours_stable_on_non_pow2 () =
  (* §8.2: our method is stable while the library collapses *)
  let ours = gflops ~m:8192 ~n:8192 ~k:15360 () in
  let lib =
    (Xmath.measure config (Spec.make ~m:8192 ~n:8192 ~k:15360 ())).Xmath.gflops
  in
  Alcotest.(check bool) "ours above 80% of peak" true (ours /. peak > 0.80);
  Alcotest.(check bool) "beats the library by >40%" true (ours > 1.4 *. lib)

let test_spm_budget_9_buffers () =
  (* §6.3: nine local buffers; on the real config that is 160 KB <= 256 KB *)
  let c = compile_exn ~config (Spec.make ~m:512 ~n:512 ~k:256 ()) in
  let bytes = Sw_ast.Ast.spm_bytes c.Compile.program in
  Alcotest.(check int) "160 KiB of SPM" (160 * 1024) bytes;
  Alcotest.(check bool) "fits the 256 KiB SPM" true
    (bytes <= config.Config.spm_bytes)

let tests =
  [
    ("peak constant", `Quick, test_peak);
    ("headline 90.14% efficiency", `Quick, test_headline_efficiency);
    ("breakdown bands (Fig 13)", `Quick, test_breakdown_bands);
    ("breakdown factors", `Quick, test_breakdown_factors);
    ("small-K penalty", `Quick, test_small_k_penalty);
    ("monotone in K", `Quick, test_monotone_in_k);
    ("vs xMath headline (+9.44%)", `Quick, test_vs_xmath_headline);
    ("xMath wins where the paper says", `Quick, test_xmath_wins_where_paper_says);
    ("stability on non-pow2 K", `Quick, test_ours_stable_on_non_pow2);
    ("nine-buffer SPM budget", `Quick, test_spm_budget_9_buffers);
  ]

(* Extension regression bands *)

let test_gemv_band () =
  let compiled = Gemv.compile ~config (Gemv.make_spec ~m:8192 ~n:8192 ()) in
  let p = Gemv.measure compiled in
  in_band "gemv vs bandwidth bound" 6.0 8.6 p.Runner.gflops

let test_multi_cluster_band () =
  let spec = Spec.make ~m:16384 ~n:16384 ~k:8192 () in
  match Sw_multi.Plan.make spec ~clusters:6 with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let s =
        Sw_multi.Multi_sim.measure ~jobs:1 (Session.create ~no_cache:true ~arch:config ()) plan
      in
      in_band "6-cluster Tflops" 7.0 11.0 (s.Sw_multi.Multi_sim.gflops /. 1000.0);
      in_band "parallel efficiency" 0.6 1.0 s.Sw_multi.Multi_sim.parallel_efficiency

let test_kgen_vendor_gap () =
  (* the generated 64x64x32 kernel trails the vendor routine, but not by
     much: the future-work path is viable *)
  match Sw_kernels.Kgen.generate ~m:64 ~n:64 ~k:32 () with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let eff = Sw_kernels.Kgen.estimated_efficiency t in
      in_band "generated-kernel efficiency" 0.90 0.979 eff

let extension_tests =
  [
    ("gemv band", `Quick, test_gemv_band);
    ("multi-cluster band", `Quick, test_multi_cluster_band);
    ("kgen vendor gap", `Quick, test_kgen_vendor_gap);
  ]

let tests = tests @ extension_tests

let test_extrapolation_on_real_config () =
  (* the block-periodic fast path agrees with full event simulation on the
     production configuration *)
  List.iter
    (fun (m, n, k) ->
      let c = compile_exn ~config (Spec.make ~m ~n ~k ()) in
      let exact = (Runner.measure_exact c).Runner.seconds in
      let fast = (Runner.measure c).Runner.seconds in
      if abs_float (exact -. fast) > 0.03 *. exact then
        Alcotest.failf "%dx%dx%d: exact %.4g vs fast %.4g" m n k exact fast)
    [ (1024, 1024, 1024); (512, 1024, 2048); (1024, 512, 2560) ]

let tests =
  tests @ [ ("extrapolation on the real config", `Quick, test_extrapolation_on_real_config) ]

(* The exact simulation of the 2048^3 kernel is pinned event for event, not
   only to the bit in simulated seconds: a change to the simulator's host
   implementation must replay the same events (no fast-forwarding). *)
let test_exact_2048_events () =
  let c = compile_exn ~config (Spec.make ~m:2048 ~n:2048 ~k:2048 ()) in
  let registry = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install registry;
  let p =
    Fun.protect ~finally:Sw_obs.Metrics.uninstall (fun () ->
        Runner.measure_exact c)
  in
  Alcotest.(check string) "seconds" "0x1.6baa25689dd8fp-7"
    (Printf.sprintf "%h" p.Runner.seconds);
  match
    Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot registry) "sim.events_total"
  with
  | Some (Sw_obs.Metrics.Counter n) -> Alcotest.(check int) "events" 242_902 n
  | _ -> Alcotest.fail "sim.events_total not recorded"

let tests =
  tests @ [ ("exact 2048^3 replays 242902 events", `Quick, test_exact_2048_events) ]
