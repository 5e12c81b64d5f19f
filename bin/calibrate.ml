(* Calibration probe: print the simulated Gflops of the four §8.1 variants
   on the SW26010Pro model for a few square shapes, next to the paper's
   reported means. Used to fix the Config constants (see DESIGN.md §4). *)

open Sw_core
open Sw_arch

let shapes = [ 512; 1024; 2048; 4096; 8192; 15360 ]

let () =
  let config = Config.sw26010pro in
  let session = Session.create ~arch:config () in
  Printf.printf "peak = %.2f Gflops\n%!" (Config.peak_gflops config);
  Printf.printf "%-8s" "shape";
  List.iter (fun (name, _) -> Printf.printf "%16s" name) Options.breakdown;
  print_newline ();
  let sums = Array.make (List.length Options.breakdown) 0.0 in
  List.iter
    (fun s ->
      Printf.printf "%-8d%!" s;
      List.iteri
        (fun i (_, options) ->
          let spec = Spec.make ~m:s ~n:s ~k:s () in
          let c = Compile.run_exn (Session.with_options session options) spec in
          let p = Runner.measure c in
          sums.(i) <- sums.(i) +. p.Runner.gflops;
          Printf.printf "%16.2f%!" p.Runner.gflops)
        Options.breakdown;
      print_newline ())
    shapes;
  Printf.printf "%-8s" "mean";
  Array.iter (fun s -> Printf.printf "%16.2f" (s /. float_of_int (List.length shapes))) sums;
  print_newline ();
  Printf.printf "paper means: 84.89 / 240.39 / 1052.94 / 1849.06; best 90.14%% of peak\n";
  let best =
    let spec = Spec.make ~m:15360 ~n:15360 ~k:15360 () in
    (Runner.measure (Compile.run_exn session spec)).Runner.gflops
  in
  Printf.printf "15360^3 full pipeline: %.2f Gflops = %.2f%% of peak\n" best
    (100.0 *. best /. Config.peak_gflops config)
