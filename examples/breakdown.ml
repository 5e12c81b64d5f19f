(* Optimization breakdown (§8.1): what each transformation contributes.

   Compiles the same GEMM four times with the generator's optimizations
   enabled one by one — exactly the ablation of Fig. 13 — and shows the
   schedule tree growing from plain tiling to the fully pipelined form of
   Fig. 11.

   Run with:  dune exec examples/breakdown.exe *)

open Sw_core
open Sw_arch

let config = Config.sw26010pro
let session = Session.create ~arch:config ()
let spec = Spec.make ~m:4096 ~n:4096 ~k:4096 ()

let () =
  Printf.printf "== performance breakdown at %s (peak %.2f Gflops) ==\n\n"
    (Spec.to_string spec) (Config.peak_gflops config);
  let previous = ref None in
  List.iter
    (fun (name, options) ->
      let compiled = Compile.run_exn (Session.with_options session options) spec in
      let g = (Runner.measure compiled).Runner.gflops in
      let speedup =
        match !previous with
        | Some p -> Printf.sprintf "  (%.2fx over previous)" (g /. p)
        | None -> ""
      in
      previous := Some g;
      Printf.printf "%-18s %9.2f Gflops%s\n" name g speedup)
    Options.breakdown;

  let x = Sw_xmath.Xmath.measure config spec in
  Printf.printf "%-18s %9.2f Gflops  (library baseline)\n\n" "xMath"
    x.Sw_xmath.Xmath.gflops;

  (* show how the schedule tree evolves: plain DMA vs the final pipelined
     tree with peeled filters and double-buffer subscripts *)
  let dump title options =
    Printf.printf "---- schedule tree: %s ----\n" title;
    let compiled =
      Compile.run_exn (Session.with_options session options)
        (Spec.make ~m:512 ~n:512 ~k:512 ())
    in
    print_string (Sw_tree.Tree.to_string compiled.Compile.tree);
    print_newline ()
  in
  dump "automatic DMA only" Options.baseline;
  dump "full pipeline (Fig. 11)" Options.all_on;

  (* what latency hiding looks like: one CPE's activity lane, with (K) the
     micro kernel, (D) DMA, (R) RMA, (w) blocked on a reply, (b) barrier *)
  let lane options =
    let compiled =
      Compile.run_exn (Session.with_options session options)
        (Spec.make ~m:512 ~n:512 ~k:2048 ())
    in
    let trace, perf = Runner.traced compiled in
    let mesh = (config.Config.mesh_rows, config.Config.mesh_cols) in
    Printf.printf "%-18s |%s| %s\n" (Options.name options)
      (Sw_arch.Trace.gantt trace ~rid:3 ~cid:5 ~width:72)
      (Sw_arch.Trace.summary trace ~mesh);
    ignore perf
  in
  print_endline "---- CPE(3,5) activity at 512x512x2048 ----";
  lane Options.with_rma;
  lane Options.all_on;
  print_endline
    "\n(K kernel, D dma, R rma, w reply-wait, b barrier; the pipelined lane\n\
     is dominated by K where the unpipelined one alternates K with waits)"
