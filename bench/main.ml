(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8) on the simulated SW26010Pro, plus ablations and Bechamel
   micro-benchmarks of the generator itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig13      -- one experiment
     (fig13 | fig14 | fig15 | fig16 | cost | ablation | service | micro)

   Absolute Gflops come from the calibrated machine model (DESIGN.md §4);
   the claims under reproduction are the *relative* results: breakdown
   factors, who wins where, crossover locations. EXPERIMENTS.md records
   paper-vs-measured for every series. *)

open Sw_core
open Sw_arch
open Sw_xmath

let config = Config.sw26010pro
let peak = Config.peak_gflops config

(* Machine-readable sink: alongside its text and CSVs, every series lands
   in BENCH_<series>.json under the results directory — the tables, a
   generated-kernel Gflops summary, wall-clock, and (under --metrics) the
   metrics recorded while it ran. Written silently so stdout stays
   byte-identical. *)
let metrics_registry = ref None
let json_tables = ref []
let gflops_log = ref []

(* The measurement fan-out of each figure runs over --jobs host domains;
   everything that mutates shared state (printing, CSV/JSON sinks, the
   Gflops log) stays on the main domain, after the pool barrier, in shape
   order — stdout and results/ are byte-identical for every --jobs. *)
let pool = ref None

let pmap f xs =
  match !pool with Some p -> Sw_host.Pool.map p f xs | None -> List.map f xs

let session ?(options = Options.all_on) () = Session.create ~no_cache:true ~options ~arch:config ()

(* Pure measurement (safe inside pool tasks); [ours] adds the logging. *)
let measure_ours ?options spec =
  (Runner.measure (Compile.run_exn (session ?options ()) spec)).Runner.gflops

let log_gflops g = gflops_log := g :: !gflops_log

let ours ?options spec =
  let g = measure_ours ?options spec in
  log_gflops g;
  g

let lib spec = (Xmath.measure config spec).Xmath.gflops

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let header title =
  Printf.printf "\n==================== %s ====================\n" title

(* The directory every series writes its CSVs and BENCH json into:
   results/ for a plain run; `check` points it at the git-ignored
   results/check/, so checking never rewrites the committed reference
   files (only `check --write` refreshes those). *)
let results_dir = ref "results"

let bench_result_path name =
  Filename.concat !results_dir ("BENCH_" ^ name ^ ".json")

(* [file] under the results directory, which is created on first write *)
let writable_path file =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mkdir_p !results_dir;
  Filename.concat !results_dir file

(* CSV sink: every figure also lands in <results>/<name>.csv for re-plotting. *)
let csv name columns rows =
  let path = writable_path (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (String.concat "," columns);
  output_char oc '\n';
  List.iter
    (fun row ->
      output_string oc (String.concat "," row);
      output_char oc '\n')
    rows;
  close_out oc;
  json_tables :=
    ( name,
      Sw_obs.Json.Obj
        [
          ("columns", List (List.map (fun c -> Sw_obs.Json.String c) columns));
          ( "rows",
            List
              (List.map
                 (fun row ->
                   Sw_obs.Json.List
                     (List.map (fun x -> Sw_obs.Json.String x) row))
                 rows) );
        ] )
    :: !json_tables;
  Printf.printf "[wrote %s]\n" path

(* ------------------------------------------------------------------ *)
(* Fig. 13: square GEMM breakdown                                       *)
(* ------------------------------------------------------------------ *)

let fig13_shapes =
  [ 512; 1024; 1536; 2048; 2560; 3072; 4096; 5120; 6144; 7680; 10240; 15360 ]

let fig13 () =
  header "Fig. 13: square GEMM, performance breakdown vs xMath";
  Printf.printf "%-8s" "shape";
  List.iter (fun (n, _) -> Printf.printf "%17s" n) Options.breakdown;
  Printf.printf "%17s\n" "xMath";
  let cols = Array.make (List.length Options.breakdown + 1) [] in
  let measured =
    pmap
      (fun s ->
        let spec = Spec.make ~m:s ~n:s ~k:s () in
        ( List.map (fun (_, options) -> measure_ours ~options spec)
            Options.breakdown,
          lib spec ))
      fig13_shapes
  in
  List.iter2
    (fun s (gs, x) ->
      Printf.printf "%-8d" s;
      List.iteri
        (fun i g ->
          log_gflops g;
          cols.(i) <- g :: cols.(i);
          Printf.printf "%17.2f" g)
        gs;
      cols.(List.length Options.breakdown) <- x :: cols.(List.length Options.breakdown);
      Printf.printf "%17.2f\n%!" x)
    fig13_shapes measured;
  Printf.printf "%-8s" "mean";
  Array.iter (fun c -> Printf.printf "%17.2f" (mean c)) cols;
  print_newline ();
  csv "fig13"
    ("shape" :: List.map fst Options.breakdown @ [ "xmath" ])
    (List.mapi
       (fun i s ->
         string_of_int s
         :: List.map
              (fun c ->
                Printf.sprintf "%.2f" (List.nth (List.rev c) i))
              (Array.to_list cols))
       fig13_shapes);
  let v(i) = mean cols.(i) in
  Printf.printf
    "factors: asm %.2fx, rma %.2fx, hiding %.2fx (paper: 2.83x, 4.38x, 1.76x)\n"
    (v 1 /. v 0) (v 2 /. v 1) (v 3 /. v 2);
  let best = List.hd cols.(3) (* 15360^3, last pushed *) in
  Printf.printf "largest shape: %.2f Gflops = %.2f%% of peak (paper: 90.14%%)\n"
    best (100.0 *. best /. peak);
  Printf.printf "ours vs xMath on squares: %+.2f%% (paper: +9.62%%)\n"
    (100.0 *. ((v 3 /. v 4) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Fig. 14: non-square GEMM vs xMath                                    *)
(* ------------------------------------------------------------------ *)

let fig14_shapes =
  let mns =
    [
      (2048, 4096); (4096, 4096); (4096, 8192); (8192, 8192); (4096, 16384);
      (8192, 16384); (2048, 8192); (8192, 4096); (16384, 4096);
    ]
  in
  (* one non-power-of-two K out of four: exactly nine degraded shapes out
     of 36, as §8.2 reports *)
  let ks = [ 4096; 8192; 15360; 16384 ] in
  List.concat_map (fun (m, n) -> List.map (fun k -> (m, n, k)) ks) mns

let fig14 () =
  header "Fig. 14: non-square GEMM vs xMath (36 shapes)";
  Printf.printf "%-22s %12s %12s %9s\n" "shape" "ours" "xMath" "ratio";
  let ours_all = ref [] and lib_all = ref [] in
  let rows = ref [] in
  let worst_lib = ref (1.0, (0, 0, 0)) in
  let best_ours = ref (0.0, (0, 0, 0)) and best_lib = ref (0.0, (0, 0, 0)) in
  let measured =
    pmap
      (fun (m, n, k) ->
        let spec = Spec.make ~m ~n ~k () in
        (measure_ours spec, lib spec))
      fig14_shapes
  in
  List.iter2
    (fun (m, n, k) (o, x) ->
      log_gflops o;
      ours_all := o :: !ours_all;
      lib_all := x :: !lib_all;
      if x /. peak < fst !worst_lib then worst_lib := (x /. peak, (m, n, k));
      if o > fst !best_ours then best_ours := (o, (m, n, k));
      if x > fst !best_lib then best_lib := (x, (m, n, k));
      rows :=
        [ string_of_int m; string_of_int n; string_of_int k;
          Printf.sprintf "%.2f" o; Printf.sprintf "%.2f" x ]
        :: !rows;
      Printf.printf "%-22s %12.2f %12.2f %8.2fx\n%!"
        (Printf.sprintf "%dx%dx%d" m n k)
        o x (o /. x))
    fig14_shapes measured;
  csv "fig14" [ "m"; "n"; "k"; "ours"; "xmath" ] (List.rev !rows);
  Printf.printf "means: ours %.2f, xMath %.2f -> %+.2f%% (paper: 1911.22 vs \
                 1846.96, +9.25%%)\n"
    (mean !ours_all) (mean !lib_all)
    (100.0 *. ((mean !ours_all /. mean !lib_all) -. 1.0));
  let frac, (m, n, k) = !worst_lib in
  Printf.printf "xMath worst: %.2f%% of peak at %dx%dx%d (paper: 42.25%% at \
                 8192x8192x15360)\n"
    (100.0 *. frac) m n k;
  let g, (m, n, k) = !best_ours in
  Printf.printf "ours best: %.2f%% of peak at %dx%dx%d (paper: 90.03%%)\n"
    (100.0 *. g /. peak) m n k;
  let g, (m, n, k) = !best_lib in
  Printf.printf "xMath best: %.2f%% of peak at %dx%dx%d (paper: 93.53%% at \
                 4096x16384x16384)\n"
    (100.0 *. g /. peak) m n k

(* ------------------------------------------------------------------ *)
(* Fig. 15: batched GEMM                                                *)
(* ------------------------------------------------------------------ *)

let fig15_shapes =
  (* six shapes, K a power of two or not, as §8.3 describes *)
  [
    (512, 512, 3072); (2048, 2048, 5120); (4096, 4096, 6144);
    (4096, 4096, 12288); (4096, 4096, 16384); (8192, 8192, 10240);
  ]

let fig15 () =
  header "Fig. 15: batched GEMM vs per-call xMath";
  Printf.printf "%-30s %12s %12s %9s\n" "workload" "ours" "xMath" "ratio";
  let ours_all = ref [] and lib_all = ref [] and ratios = ref [] in
  let rows = ref [] in
  let workloads =
    List.concat_map
      (fun batch -> List.map (fun (m, n, k) -> (batch, m, n, k)) fig15_shapes)
      [ 2; 4; 8; 16 ]
  in
  let measured =
    pmap
      (fun (batch, m, n, k) ->
        let spec = Spec.make ~batch ~m ~n ~k () in
        (measure_ours spec, lib spec))
      workloads
  in
  List.iter2
    (fun (batch, m, n, k) (o, x) ->
      log_gflops o;
      ours_all := o :: !ours_all;
      lib_all := x :: !lib_all;
      ratios := (o /. x) :: !ratios;
      rows :=
        [ string_of_int batch; string_of_int m; string_of_int n;
          string_of_int k; Printf.sprintf "%.2f" o; Printf.sprintf "%.2f" x ]
        :: !rows;
      Printf.printf "%-30s %12.2f %12.2f %8.2fx\n%!"
        (Printf.sprintf "batch=%-2d %dx%dx%d" batch m n k)
        o x (o /. x))
    workloads measured;
  csv "fig15" [ "batch"; "m"; "n"; "k"; "ours"; "xmath" ] (List.rev !rows);
  Printf.printf
    "means: ours %.2f, xMath %.2f; mean per-shape speedup %.2fx (paper: \
     1949.92 vs 1603.26, 1.30x)\n"
    (mean !ours_all) (mean !lib_all) (mean !ratios)

(* ------------------------------------------------------------------ *)
(* Fig. 16: fusion patterns                                             *)
(* ------------------------------------------------------------------ *)

let fig16_shapes =
  [
    (2048, 2048, 2048); (3072, 3072, 3072); (4096, 4096, 4096);
    (6144, 6144, 6144); (8192, 8192, 8192); (10752, 10752, 10752);
    (8192, 16384, 8192); (4096, 8192, 8192);
  ]

let fig16_one ~title ~fusion ~paper =
  Printf.printf "\n-- fusion with %s --\n" title;
  Printf.printf "%-22s %12s %12s %9s\n" "shape" "fused" "baseline" "ratio";
  let f_all = ref [] and b_all = ref [] in
  let rows = ref [] in
  let measured =
    pmap
      (fun (m, n, k) ->
        let spec = Spec.make ~fusion ~m ~n ~k () in
        (measure_ours spec, lib spec))
      fig16_shapes
  in
  List.iter2
    (fun (m, n, k) (o, x) ->
      log_gflops o;
      f_all := o :: !f_all;
      b_all := x :: !b_all;
      rows :=
        [ string_of_int m; string_of_int n; string_of_int k;
          Printf.sprintf "%.2f" o; Printf.sprintf "%.2f" x ]
        :: !rows;
      Printf.printf "%-22s %12.2f %12.2f %8.2fx\n%!"
        (Printf.sprintf "%dx%dx%d" m n k)
        o x (o /. x))
    fig16_shapes measured;
  csv
    (match fusion with
    | Spec.Prologue _ -> "fig16_prologue"
    | Spec.Epilogue _ -> "fig16_epilogue"
    | Spec.No_fusion -> "fig16_plain")
    [ "m"; "n"; "k"; "fused"; "baseline" ]
    (List.rev !rows);
  Printf.printf "means: fused %.2f vs baseline %.2f -> %.2fx (paper: %s)\n"
    (mean !f_all) (mean !b_all)
    (mean !f_all /. mean !b_all)
    paper;
  (mean !f_all, mean !b_all)

let fig16 () =
  header "Fig. 16: fusion patterns vs xMath + MPE element-wise pass";
  let pf, pb =
    fig16_one ~title:"prologue (quantization of A)"
      ~fusion:(Spec.Prologue "quant") ~paper:"1709.81 vs 1436.46, 1.26x"
  in
  let ef, eb =
    fig16_one ~title:"epilogue (tanh activation of C)"
      ~fusion:(Spec.Epilogue "tanh") ~paper:"1818.24 vs 919.56, 2.11x"
  in
  Printf.printf
    "\noverall fusion speedup: %.2fx (paper: 1.67x average of both patterns)\n"
    (((pf /. pb) +. (ef /. eb)) /. 2.0)

(* ------------------------------------------------------------------ *)
(* §8.5: engineering cost                                               *)
(* ------------------------------------------------------------------ *)

let cost () =
  header "engineering cost (§8.5): seconds to generate each kernel";
  let scenarios =
    [
      ("plain 4096^3", Spec.make ~m:4096 ~n:4096 ~k:4096 (), Options.all_on);
      ("plain 15360^3", Spec.make ~m:15360 ~n:15360 ~k:15360 (), Options.all_on);
      ("batched 8x2048^3", Spec.make ~batch:8 ~m:2048 ~n:2048 ~k:2048 (), Options.all_on);
      ( "fused prologue",
        Spec.make ~fusion:(Spec.Prologue "quant") ~m:4096 ~n:4096 ~k:4096 (),
        Options.all_on );
      ( "fused epilogue",
        Spec.make ~fusion:(Spec.Epilogue "tanh") ~m:4096 ~n:4096 ~k:4096 (),
        Options.all_on );
      ("no-asm variant", Spec.make ~m:4096 ~n:4096 ~k:4096 (), Options.baseline);
    ]
  in
  List.iter
    (fun (name, spec, options) ->
      let compiled, secs =
        Compile.generation_seconds (fun () ->
            Compile.run_exn (session ~options ()) spec)
      in
      Printf.printf
        "  %-18s %8.2f ms (schedule tree + polyhedral bounds + AST + %d C lines)\n"
        name (1000.0 *. secs)
        (String.length (Cemit.cpe_file compiled)
        |> fun n -> n / 40 (* rough line estimate *)))
    scenarios;
  Printf.printf
    "paper: seconds per kernel vs months of manual work for SW26010 [11, 12]\n";

  header "plan cache: cold pipeline vs cache hit";
  let cache = Plan_cache.create () in
  let hit_iters = 100 in
  let rows = ref [] in
  List.iter
    (fun (name, spec, options) ->
      let cached = Session.create ~options ~cache ~arch:config () in
      let _, cold =
        Compile.generation_seconds (fun () -> Compile.run_exn cached spec)
      in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to hit_iters do
        ignore (Compile.run_exn cached spec)
      done;
      let hit = (Unix.gettimeofday () -. t0) /. float_of_int hit_iters in
      rows :=
        [ name; Printf.sprintf "%.6f" cold; Printf.sprintf "%.9f" hit;
          Printf.sprintf "%.1f" (cold /. hit) ]
        :: !rows;
      Printf.printf "  %-18s cold %8.2f ms, hit %8.2f us -> %8.1fx\n" name
        (1000.0 *. cold) (1e6 *. hit) (cold /. hit))
    scenarios;
  let st = Plan_cache.stats cache in
  Printf.printf "  cache: %d hits, %d misses, %d entries\n"
    st.Plan_cache.hits st.Plan_cache.misses st.Plan_cache.entries;
  csv "cost_cache" [ "scenario"; "cold_s"; "hit_s"; "speedup" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §5)                                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "ablation: micro-kernel shape search (§3.1 analytic model vs tuning)";
  let spec = Spec.make ~m:4096 ~n:4096 ~k:4096 () in
  let rows, best = Sw_tune.Search.ladder ~config spec in
  List.iter
    (fun ((m, n, k), r) ->
      match r with
      | Error e -> Printf.printf "  %3dx%3dx%3d   infeasible: %s\n" m n k e
      | Ok (g, note) ->
          Printf.printf "  %3dx%3dx%3d  %9.2f Gflops  (%s)\n" m n k g note)
    rows;
  let (bm, bn, bk), bg = Option.get best in
  Printf.printf
    "  best: %dx%dx%d at %.2f Gflops -- the vendor kernel's shape wins the \
     ladder at the paper's strip factor and double buffering; for what \
     off-ladder shapes gain see bench tune (DESIGN.md §15)\n"
    bm bn bk bg;

  header "ablation: batch dimension placement (§3, §8.3)";
  let batch = 8 and m = 2048 and n = 2048 and k = 5120 in
  let spec = Spec.make ~batch ~m ~n ~k () in
  let inside = (Runner.measure (Compile.run_exn (session ()) spec)).Runner.gflops in
  (* per-batch mesh relaunch: batch independent launches of the unbatched
     kernel (what a library without a batched interface must do) *)
  let single =
    Runner.measure (Compile.run_exn (session ()) (Spec.make ~m ~n ~k ()))
  in
  let relaunch_s = float_of_int batch *. single.Runner.seconds in
  let relaunch =
    float_of_int (Spec.flops spec) /. relaunch_s /. 1e9
  in
  Printf.printf
    "  batch loop inside CPEs: %8.2f Gflops\n  one launch per element: %8.2f \
     Gflops (%.1f%% slower)\n"
    inside relaunch
    (100.0 *. (1.0 -. (relaunch /. inside)));

  header "ablation: machine-parameter sensitivity of the pipeline";
  let spec = Spec.make ~m:8192 ~n:8192 ~k:8192 () in
  let base = ours spec in
  let with_cfg cfg =
    (Runner.measure (Compile.run_exn (Session.create ~no_cache:true ~arch:cfg ()) spec))
      .Runner.gflops
  in
  Printf.printf "  baseline model:            %8.2f Gflops\n" base;
  Printf.printf "  memory bandwidth / 2:      %8.2f Gflops (DMA hiding saturates)\n"
    (with_cfg { config with Config.mem_bw_bytes_per_s = config.Config.mem_bw_bytes_per_s /. 2.0 });
  Printf.printf "  RMA bandwidth / 4:         %8.2f Gflops (broadcast still hidden)\n"
    (with_cfg { config with Config.rma_bw_bytes_per_s = config.Config.rma_bw_bytes_per_s /. 4.0 });
  Printf.printf "  barrier latency x 10:      %8.2f Gflops (sync on the critical path)\n"
    (with_cfg { config with Config.sync_latency_s = config.Config.sync_latency_s *. 10.0 });

  header "extension: GEMV from the same decomposition (§9)";
  List.iter
    (fun (m, n) ->
      let g = Gemv.compile ~config (Gemv.make_spec ~m ~n ()) in
      let p = Gemv.measure g in
      Printf.printf "  gemv %6dx%-6d %8.2f Gflops (%.1f%% of the %.1f Gflops bandwidth bound)\n"
        m n p.Runner.gflops
        (100.0 *. p.Runner.gflops /. (0.25 *. config.Config.mem_bw_bytes_per_s /. 1e9))
        (0.25 *. config.Config.mem_bw_bytes_per_s /. 1e9))
    [ (4096, 4096); (8192, 8192); (16384, 8192) ];
  Printf.printf
    "  (memory-bound at 0.25 flops/byte, as expected: the x panel is shared\n\
    \   over the mesh with the Fig. 8c all-broadcast, but A traffic dominates)\n" 

(* ------------------------------------------------------------------ *)
(* Resilience: simulated cost of fault recovery                         *)
(* ------------------------------------------------------------------ *)

let resilience () =
  header "resilience: clean vs faulted runs (exact simulation)";
  (* every scenario builds a fresh plan so the injection stats are its own;
     seeds are fixed so the series is reproducible *)
  let timing_kinds =
    [ Fault.Jitter; Fault.Stall; Fault.Straggler; Fault.Delay_reply ]
  in
  let scenarios =
    [
      ("clean", fun () -> None);
      ( "timing-noise",
        fun () ->
          Some
            (Fault.plan
               ~spec:(Fault.spec_with ~kinds:timing_kinds Fault.default_spec)
               ~seed:1 ()) );
      ( "drops-redelivered",
        fun () ->
          Some
            (Fault.plan
               ~spec:
                 {
                   (Fault.spec_with ~kinds:[ Fault.Drop_reply ]
                      Fault.default_spec)
                   with
                   Fault.drop_prob = 0.1;
                   drop_permanent_frac = 0.0;
                 }
               ~seed:2 ()) );
      ( "drops-permanent",
        fun () ->
          Some
            (Fault.plan
               ~spec:
                 {
                   (Fault.spec_with ~kinds:[ Fault.Drop_reply ]
                      Fault.default_spec)
                   with
                   Fault.drop_prob = 1.0;
                   drop_permanent_frac = 1.0;
                 }
               ~seed:3 ()) );
    ]
  in
  let watchdog =
    { Engine.no_watchdog with Engine.max_events = Some 50_000_000 }
  in
  let shapes = [ (256, 256, 256); (512, 512, 512); (512, 512, 2048) ] in
  Printf.printf "%-16s %-20s %12s %10s  %s\n" "shape" "scenario" "time (ms)"
    "overhead" "recovery";
  let rows = ref [] in
  List.iter
    (fun (m, n, k) ->
      let compiled = Compile.run_exn (session ()) (Spec.make ~m ~n ~k ()) in
      let clean = ref 0.0 in
      List.iter
        (fun (name, plan) ->
          let faults = plan () in
          match Runner.timing_resilient ?faults ~watchdog compiled with
          | Error e -> failwith (Runner.error_to_string e)
          | Ok r ->
              if faults = None then clean := r.Runner.seconds;
              let overhead = 100.0 *. ((r.Runner.seconds /. !clean) -. 1.0) in
              let recovery = Runner.recovery_to_string r.Runner.recovery in
              let injected =
                match faults with
                | None -> "-"
                | Some f -> Fault.stats_to_string f
              in
              rows :=
                [ string_of_int m; string_of_int n; string_of_int k; name;
                  Printf.sprintf "%.4f" (1000.0 *. r.Runner.seconds);
                  Printf.sprintf "%.2f" overhead; recovery; injected ]
                :: !rows;
              Printf.printf "%-16s %-20s %12.4f %9.2f%%  %s [%s]\n%!"
                (Printf.sprintf "%dx%dx%d" m n k)
                name
                (1000.0 *. r.Runner.seconds)
                overhead recovery injected)
        scenarios)
    shapes;
  csv "resilience"
    [ "m"; "n"; "k"; "scenario"; "ms"; "overhead_pct"; "recovery"; "injected" ]
    (List.rev !rows);
  Printf.printf
    "(clean runs pay nothing: with no plan the fault hooks short-circuit and \
     timings are bit-identical)\n"

(* ------------------------------------------------------------------ *)
(* Durability: the persistent plan store (DESIGN.md §13)                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let durability () =
  header "durability: persistent plan store — cold, warm start, concurrent";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swgemm-bench-store.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let shapes = List.init 16 (fun i -> 192 + (32 * i)) in
  let spec_of s = Spec.make ~m:s ~n:s ~k:s () in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  (* cold: every compile misses memory and disk, pays the pipeline and
     the store write-back *)
  let store = Sw_host.Store.open_ ~schema:Compile.store_schema ~dir () in
  let cold_session = Session.create ~store ~arch:config () in
  let cold =
    List.map (fun s -> time (fun () -> Compile.run_exn cold_session (spec_of s)))
      shapes
  in
  (* warm start: a restarted process reloads the plans from disk into the
     in-memory cache, then every compile is a memory hit *)
  let store2 = Sw_host.Store.open_ ~schema:Compile.store_schema ~dir () in
  let warm_session = Session.create ~store:store2 ~arch:config () in
  let t0 = Unix.gettimeofday () in
  let loaded = Session.warm_start warm_session in
  let warm_load_s = Unix.gettimeofday () -. t0 in
  let warm =
    List.map (fun s -> time (fun () -> Compile.run_exn warm_session (spec_of s)))
      shapes
  in
  Printf.printf "  cold (pipeline + store write): mean %8.3f ms over %d shapes\n"
    (1000.0 *. mean cold) (List.length shapes);
  Printf.printf
    "  warm start: %d plan(s) loaded in %.3f ms; compiles then mean %8.4f ms\n"
    loaded (1000.0 *. warm_load_s) (1000.0 *. mean warm);
  (* concurrent cacheless sessions sharing the one store: every request is
     a validated disk read + decode, the daemon's steady state *)
  let requests = List.concat_map (fun s -> [ s; s; s; s ]) shapes in
  let latencies =
    pmap
      (fun s ->
        let session = Session.create ~store:store2 ~arch:config () in
        time (fun () -> Compile.run_exn session (spec_of s)))
      requests
  in
  let p50 = percentile 0.50 latencies and p99 = percentile 0.99 latencies in
  Printf.printf
    "  shared store, %d concurrent requests: p50 %8.4f ms, p99 %8.4f ms\n"
    (List.length requests) (1000.0 *. p50) (1000.0 *. p99);
  let st = Sw_host.Store.stats store2 in
  Printf.printf "  store: %s\n" (Sw_host.Store.stats_to_string st);
  csv "durability"
    [ "shape"; "cold_s"; "warm_s" ]
    (List.map2
       (fun s (c, w) ->
         [ string_of_int s; Printf.sprintf "%.6f" c; Printf.sprintf "%.6f" w ])
       shapes
       (List.combine cold warm));
  csv "durability_concurrent"
    [ "requests"; "warm_loaded"; "warm_load_s"; "p50_s"; "p99_s" ]
    [
      [
        string_of_int (List.length requests);
        string_of_int loaded;
        Printf.sprintf "%.6f" warm_load_s;
        Printf.sprintf "%.6f" p50;
        Printf.sprintf "%.6f" p99;
      ];
    ];
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Autotuning: searched decompositions vs the paper defaults            *)
(* ------------------------------------------------------------------ *)

let tune_shapes =
  [ (2048, 2048, 2048); (4096, 4096, 4096); (4096, 16384, 8192); (8192, 8192, 8192) ]

let tune_budget = 12

let tune () =
  header "tune: searched decompositions vs paper defaults (tuning DB)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swgemm-bench-tune.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let db = Sw_tune.Tune_db.open_ ~dir () in
  let jobs = match !pool with Some p -> Sw_host.Pool.jobs p | None -> 1 in
  Printf.printf "%-18s %12s %12s %9s %9s %7s\n" "shape" "default GF"
    "tuned GF" "speedup" "measured" "pruned";
  let rows =
    List.map
      (fun (m, n, k) ->
        let spec = Spec.make ~m ~n ~k () in
        match Sw_tune.Search.run ~budget:tune_budget ~jobs ~db ~config spec with
        | Error e -> failwith (Printf.sprintf "tune %dx%dx%d: %s" m n k e)
        | Ok o ->
            let open Sw_tune.Search in
            if o.gflops +. 1e-9 < o.default_gflops then
              failwith
                (Printf.sprintf
                   "tune %dx%dx%d: tuned %.2f Gflops lost to the paper \
                    default %.2f"
                   m n k o.gflops o.default_gflops);
            let pruned =
              List.length o.entries - o.measurements
            in
            log_gflops o.gflops;
            Printf.printf "%-18s %12.2f %12.2f %8.2fx %9d %7d\n"
              (Printf.sprintf "%dx%dx%d" m n k)
              o.default_gflops o.gflops
              (o.gflops /. o.default_gflops)
              o.measurements pruned;
            [
              Printf.sprintf "%dx%dx%d" m n k;
              Printf.sprintf "%.2f" o.default_gflops;
              Printf.sprintf "%.2f" o.gflops;
              Printf.sprintf "%.4f" (o.gflops /. o.default_gflops);
              string_of_int o.measurements;
              string_of_int pruned;
            ])
      tune_shapes
  in
  (* warm pass: the DB now holds every winner, so repeat traffic must be
     served with zero new simulator measurements *)
  List.iter
    (fun (m, n, k) ->
      let spec = Spec.make ~m ~n ~k () in
      match Sw_tune.Search.run ~budget:tune_budget ~jobs ~db ~config spec with
      | Error e -> failwith (Printf.sprintf "warm tune %dx%dx%d: %s" m n k e)
      | Ok o ->
          if not o.Sw_tune.Search.from_db then
            failwith
              (Printf.sprintf "warm tune %dx%dx%d missed the tuning DB" m n k);
          if o.Sw_tune.Search.measurements <> 0 then
            failwith
              (Printf.sprintf "warm tune %dx%dx%d spent %d measurement(s)" m n
                 k o.Sw_tune.Search.measurements))
    tune_shapes;
  Printf.printf
    "  warm DB: %d repeat request(s) served with zero simulator measurements\n"
    (List.length tune_shapes);
  csv "tune"
    [ "shape"; "default_gflops"; "tuned_gflops"; "speedup"; "measured"; "pruned" ]
    rows;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Architecture presets: the same GEMMs across mesh geometries          *)
(* ------------------------------------------------------------------ *)

let arch_presets =
  [ "sw26010pro"; "sw26010pro-4x4"; "sw26010pro-8x4"; "sw26010pro-16x16" ]

let arch_shapes =
  [ (4096, 4096, 4096); (8192, 8192, 8192); (4096, 16384, 8192) ]

let arch () =
  header "architecture presets: fixed shapes across mesh geometries";
  Printf.printf "%-18s %-18s %12s %12s %10s\n" "preset" "shape" "Gflops"
    "time (ms)" "of peak";
  let rows = ref [] in
  let work =
    List.concat_map
      (fun name -> List.map (fun s -> (name, s)) arch_shapes)
      arch_presets
  in
  let measured =
    pmap
      (fun (name, (m, n, k)) ->
        let cfg =
          match Config.find name with
          | Some c -> c
          | None -> failwith ("unknown preset " ^ name)
        in
        let spec = Spec.make ~m ~n ~k () in
        let p = Runner.measure (Compile.run_exn (Session.create ~no_cache:true ~arch:cfg ()) spec) in
        (p.Runner.gflops, p.Runner.seconds, Config.peak_gflops cfg))
      work
  in
  List.iter2
    (fun (name, (m, n, k)) (g, secs, pk) ->
      log_gflops g;
      rows :=
        [ name; string_of_int m; string_of_int n; string_of_int k;
          Printf.sprintf "%.2f" g; Printf.sprintf "%.6f" secs ]
        :: !rows;
      Printf.printf "%-18s %-18s %12.2f %12.3f %9.1f%%\n%!" name
        (Printf.sprintf "%dx%dx%d" m n k)
        g (1000.0 *. secs) (100.0 *. g /. pk))
    work measured;
  csv "arch" [ "preset"; "m"; "n"; "k"; "gflops"; "seconds" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Compile service: in-process daemon under concurrent load             *)
(* ------------------------------------------------------------------ *)

(* The swgemmd request path end to end, minus the fork: a Server on a
   loopback TCP port, one shared Session, 8 client domains x 64
   requests through Loadgen (the harness behind `swgemmgen client
   loadgen`). Bands pin the row count; the series itself asserts the
   service-level invariants — zero errors and byte-identical C. *)
let service () =
  header "compile service: in-process server, concurrent clients";
  let clients = 8 and requests = 64 in
  let session = Session.create ~arch:config () in
  let server =
    Sw_host.Server.create
      ~supervisor:(Sw_host.Supervise.create ())
      ~handler:(Service.handler (Service.create ~session ()))
      ()
  in
  let port = Sw_host.Server.listen_tcp server ~port:0 () in
  let serving = Thread.create (fun () -> Sw_host.Server.serve server) () in
  let spec = Spec.make ~m:512 ~n:512 ~k:512 () in
  let params = Sw_obs.Json.Obj [ ("spec", Spec.to_json spec) ] in
  let connect () = Sw_host.Client.connect_tcp ~port () in
  let r = Sw_cli.Loadgen.run ~connect ~params ~clients ~requests () in
  Sw_host.Server.drain server;
  Thread.join serving;
  if r.Sw_cli.Loadgen.errors > 0 then
    failwith
      (Printf.sprintf "service: %d request(s) failed" r.Sw_cli.Loadgen.errors);
  if not r.Sw_cli.Loadgen.identical_c then
    failwith "service: responses returned differing C";
  let p50 = Sw_cli.Loadgen.quantile_ms r.Sw_cli.Loadgen.latencies 0.5 in
  let p99 = Sw_cli.Loadgen.quantile_ms r.Sw_cli.Loadgen.latencies 0.99 in
  Printf.printf
    "%d request(s) over %d client(s): p50 %.3f ms, p99 %.3f ms, %.0f req/s\n"
    requests clients p50 p99
    (float_of_int requests /. r.Sw_cli.Loadgen.wall_s);
  let s = Sw_host.Server.stats server in
  Printf.printf "served %d, errored %d, shed %d, connections %d\n"
    s.Sw_host.Server.served s.Sw_host.Server.errored s.Sw_host.Server.shed
    s.Sw_host.Server.connections;
  csv "service" Sw_cli.Loadgen.columns
    (List.map Sw_cli.Loadgen.row_cells r.Sw_cli.Loadgen.rows)

(* ------------------------------------------------------------------ *)
(* Multi-cluster scaling (the MPI level of §2.1/§10)                    *)
(* ------------------------------------------------------------------ *)

let scaling () =
  header "multi-cluster scaling (processor level, 6 core groups)";
  let spec = Spec.make ~m:16384 ~n:16384 ~k:8192 () in
  Printf.printf "%-10s %-8s %12s %14s %12s\n" "clusters" "grid" "time (ms)"
    "Tflops" "efficiency";
  List.iter
    (fun clusters ->
      match Sw_multi.Plan.make spec ~clusters with
      | Error e -> failwith e
      | Ok plan ->
          let jobs = match !pool with Some p -> Sw_host.Pool.jobs p | None -> 1 in
          let s = Sw_multi.Multi_sim.measure ~jobs (session ()) plan in
          Printf.printf "%-10d %-8s %12.2f %14.3f %11.1f%%\n%!" clusters
            (Printf.sprintf "%dx%d" plan.Sw_multi.Plan.grid_rows
               plan.Sw_multi.Plan.grid_cols)
            (1000.0 *. s.Sw_multi.Multi_sim.seconds)
            (s.Sw_multi.Multi_sim.gflops /. 1000.0)
            (100.0 *. s.Sw_multi.Multi_sim.parallel_efficiency))
    [ 1; 2; 3; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the generator                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel: wall-clock of the code generator (one test per figure)";
  let open Bechamel in
  let open Toolkit in
  let gen name spec options =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Compile.run_exn (session ~options ()) spec)))
  in
  let tests =
    [
      gen "fig13:gen-4096^3" (Spec.make ~m:4096 ~n:4096 ~k:4096 ()) Options.all_on;
      gen "fig13:gen-baseline" (Spec.make ~m:4096 ~n:4096 ~k:4096 ()) Options.baseline;
      gen "fig14:gen-8192x8192x15360" (Spec.make ~m:8192 ~n:8192 ~k:15360 ()) Options.all_on;
      gen "fig15:gen-batched" (Spec.make ~batch:8 ~m:2048 ~n:2048 ~k:3072 ()) Options.all_on;
      gen "fig16:gen-fused"
        (Spec.make ~fusion:(Spec.Epilogue "tanh") ~m:4096 ~n:4096 ~k:4096 ())
        Options.all_on;
      Test.make ~name:"poly:gemm-dependence-analysis"
        (Staged.stage (fun () ->
             ignore (Sw_tree.Tree.initial [ Sw_tree.Stmt.gemm () ])));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  List.iter
    (fun t ->
      let results = analyze (benchmark t) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-34s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let run_series name f =
  json_tables := [];
  gflops_log := [];
  let before = Option.map Sw_obs.Metrics.snapshot !metrics_registry in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let metrics_json =
    match (!metrics_registry, before) with
    | Some r, Some before ->
        Sw_obs.Metrics.to_json
          (Sw_obs.Metrics.diff ~before ~after:(Sw_obs.Metrics.snapshot r))
    | _ -> Sw_obs.Json.Null
  in
  let gflops_json =
    match List.rev !gflops_log with
    | [] -> Sw_obs.Json.Null
    | gs ->
        Sw_obs.Json.Obj
          [
            ("count", Int (List.length gs));
            ("mean", Float (mean gs));
            ("max", Float (List.fold_left Float.max 0.0 gs));
          ]
  in
  let json =
    Sw_obs.Json.Obj
      [
        ("series", String name);
        ( "config",
          Obj
            [
              ( "mesh",
                String
                  (Printf.sprintf "%dx%d" config.Config.mesh_rows
                     config.Config.mesh_cols) );
              ("peak_gflops", Float peak);
              ( "mem_bw_gbytes_per_s",
                Float (config.Config.mem_bw_bytes_per_s /. 1e9) );
            ] );
        ("wall_seconds", Float wall);
        ("generated_gflops", gflops_json);
        ("tables", Obj (List.rev !json_tables));
        ("metrics", metrics_json);
      ]
  in
  Sw_obs.Json.write_file ~pretty:true
    ~path:(writable_path ("BENCH_" ^ name ^ ".json"))
    json

(* ------------------------------------------------------------------ *)
(* Perf-regression sentinel                                             *)
(* ------------------------------------------------------------------ *)

(* `check` re-runs the fast, deterministic series into results/check/ and
   compares their BENCH_*.json against tolerance-band baselines committed
   under bench/baselines/. Gflops come from the calibrated machine model,
   so they are bit-stable and get a tight band; wall clock varies by host
   and only catches order-of-magnitude rot; row counts are structural and
   get zero tolerance (a deliberate change re-runs `check --write`). *)

let sentinel_series = [ "arch"; "cost"; "durability"; "service"; "tune" ]

let tolerance_spec = function
  | "arch" ->
      [
        ("generated_gflops.count", 0.0); ("generated_gflops.mean", 0.05);
        ("generated_gflops.max", 0.05); ("tables.arch.rows", 0.0);
        ("wall_seconds", 3.0);
      ]
  | "cost" -> [ ("tables.cost_cache.rows", 0.0); ("wall_seconds", 3.0) ]
  | "tune" ->
      [
        ("generated_gflops.count", 0.0); ("generated_gflops.mean", 0.05);
        ("generated_gflops.max", 0.05); ("tables.tune.rows", 0.0);
        ("wall_seconds", 3.0);
      ]
  | "service" -> [ ("tables.service.rows", 0.0); ("wall_seconds", 3.0) ]
  | "durability" ->
      [
        ("tables.durability.rows", 0.0);
        ("tables.durability_concurrent.rows", 0.0); ("wall_seconds", 3.0);
      ]
  | s -> failwith ("no tolerance spec for series " ^ s)

(* Dotted path into a BENCH json; a path ending at a list reads its
   length (row counts). *)
let resolve path json =
  let open Sw_obs.Json in
  let rec walk j = function
    | [] -> (
        match j with
        | Float f -> Some f
        | Int i -> Some (float_of_int i)
        | List l -> Some (float_of_int (List.length l))
        | _ -> None)
    | seg :: rest -> (
        match member seg j with Some j -> walk j rest | None -> None)
  in
  walk json (String.split_on_char '.' path)

let write_baseline ~baseline_dir name =
  let open Sw_obs.Json in
  match parse_file (bench_result_path name) with
  | Error e ->
      Printf.eprintf "check --write: cannot read %s: %s\n"
        (bench_result_path name) e;
      exit 1
  | Ok fresh ->
      let tolerances =
        List.map
          (fun (path, frac) ->
            match resolve path fresh with
            | None ->
                Printf.eprintf "check --write: %s has no %s\n" name path;
                exit 1
            | Some v ->
                Obj
                  [
                    ("path", String path); ("value", Float v);
                    ("tol_frac", Float frac);
                  ])
          (tolerance_spec name)
      in
      write_file ~pretty:true
        ~path:(Filename.concat baseline_dir (name ^ ".json"))
        (Obj [ ("series", String name); ("tolerances", List tolerances) ])

(* One message per violated band, naming the series and metric. *)
let check_failures ~baseline_dir name =
  let open Sw_obs.Json in
  match parse_file (Filename.concat baseline_dir (name ^ ".json")) with
  | Error e -> [ Printf.sprintf "%s: cannot read baseline: %s" name e ]
  | Ok base -> (
      match parse_file (bench_result_path name) with
      | Error e -> [ Printf.sprintf "%s: cannot read fresh result: %s" name e ]
      | Ok fresh ->
          let tolerances =
            match member "tolerances" base with Some (List l) -> l | _ -> []
          in
          if tolerances = [] then
            [ Printf.sprintf "%s: baseline has no tolerances" name ]
          else
            List.filter_map
              (fun tol ->
                match
                  ( Option.bind (member "path" tol) to_string_opt,
                    Option.bind (member "value" tol) to_float_opt,
                    Option.bind (member "tol_frac" tol) to_float_opt )
                with
                | Some path, Some value, Some frac -> (
                    match resolve path fresh with
                    | None ->
                        Some
                          (Printf.sprintf "%s: %s missing from fresh result"
                             name path)
                    | Some got ->
                        if
                          Float.abs (got -. value)
                          <= frac *. Float.abs value
                        then None
                        else
                          Some
                            (Printf.sprintf
                               "%s: %s = %g outside %g +/- %g%% of baseline"
                               name path got value (100.0 *. frac)))
                | _ -> Some (Printf.sprintf "%s: malformed tolerance entry" name))
              tolerances)

let all_series =
  [
    ("fig13", fig13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
    ("cost", cost); ("ablation", ablation); ("resilience", resilience);
    ("durability", durability); ("arch", arch); ("service", service);
    ("tune", tune);
    ("scaling", scaling);
    ("micro", micro);
  ]

let check ~baseline_dir ~compare_only ~write =
  results_dir := Filename.concat "results" "check";
  if not compare_only then
    List.iter (fun n -> run_series n (List.assoc n all_series)) sentinel_series;
  if write then begin
    List.iter (write_baseline ~baseline_dir) sentinel_series;
    (* the committed reference results move together with the baselines
       cut from them *)
    List.iter
      (fun n ->
        let data =
          In_channel.with_open_bin (bench_result_path n) In_channel.input_all
        in
        Out_channel.with_open_bin
          (Filename.concat "results" ("BENCH_" ^ n ^ ".json"))
          (fun oc -> Out_channel.output_string oc data))
      sentinel_series;
    Printf.printf "bench check: wrote baselines for %s to %s\n"
      (String.concat ", " sentinel_series)
      baseline_dir
  end
  else
    match List.concat_map (check_failures ~baseline_dir) sentinel_series with
    | [] ->
        Printf.printf "bench check: %s within tolerance bands of %s\n"
          (String.concat ", " sentinel_series)
          baseline_dir
    | failures ->
        (* every violated band prints before the nonzero exit — a CI run
           that regresses three metrics names all three, not the first *)
        List.iter
          (fun f -> Printf.printf "bench check FAILED: %s\n" f)
          failures;
        Printf.printf "bench check: %d band(s) out of tolerance\n"
          (List.length failures);
        exit 1

(* Flags are checked before any series runs: an unknown flag or
   experiment, a missing value, or a check-only flag without `check` is a
   usage error. *)
let () =
  let open Cmdliner in
  let experiments_arg =
    let names = "check" :: List.map fst all_series in
    let doc =
      Printf.sprintf
        "Experiments to run, in order (default: every series): %s. \
         $(b,check) runs alone."
        (String.concat ", " names)
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let metrics_arg =
    let doc =
      "Record a metrics registry while each series runs and write its \
       per-series delta into the BENCH json."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let compare_only_arg =
    let doc =
      "With $(b,check): compare the results/check/BENCH_*.json of the last \
       check without re-running the series."
    in
    Arg.(value & flag & info [ "compare-only" ] ~doc)
  in
  let write_arg =
    let doc =
      "With $(b,check): re-pin the baselines from the results in \
       results/check/ and copy those results over the committed \
       results/BENCH_*.json."
    in
    Arg.(value & flag & info [ "write" ] ~doc)
  in
  let baselines_arg =
    let doc =
      "With $(b,check): the baseline directory (default bench/baselines)."
    in
    Arg.(value & opt (some string) None & info [ "baselines" ] ~docv:"DIR" ~doc)
  in
  let run names jobs metrics compare_only write baselines =
    let check_only =
      List.find_opt snd
        [
          ("--compare-only", compare_only);
          ("--write", write);
          ("--baselines", Option.is_some baselines);
        ]
    in
    match (names, check_only) with
    | _ :: _ :: _, _ when List.mem "check" names ->
        Error (`Msg "check runs alone, not with other experiments")
    | names, Some (flag, _) when names <> [ "check" ] ->
        Error (`Msg (flag ^ " is only valid with check"))
    | names, _ ->
        if metrics then begin
          let r = Sw_obs.Metrics.create () in
          Sw_obs.Metrics.install r;
          metrics_registry := Some r
        end;
        Sw_host.Pool.with_pool ~jobs @@ fun p ->
        pool := Some p;
        (match names with
        | [ "check" ] ->
            let baseline_dir =
              Option.value baselines
                ~default:(Filename.concat "bench" "baselines")
            in
            check ~baseline_dir ~compare_only ~write
        | [] -> List.iter (fun (n, f) -> run_series n f) all_series
        | names ->
            List.iter (fun n -> run_series n (List.assoc n all_series)) names);
        Ok ()
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "Regenerate the paper's tables and figures on the simulated \
            SW26010Pro, or check the sentinel series against their \
            baselines")
      Term.(
        term_result ~usage:true
          (const run $ experiments_arg $ Sw_cli.Common_flags.jobs_arg
         $ metrics_arg $ compare_only_arg $ write_arg $ baselines_arg))
  in
  exit (Cmd.eval cmd)
