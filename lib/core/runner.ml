open Sw_arch
open Sw_blas

type perf = { seconds : float; gflops : float; exact : bool }

type error =
  | Sim of Error.t
  | Mismatch of { batch : int; diff : float; scale : float; spec : string }

let error_to_string = function
  | Sim e -> Error.to_string e
  | Mismatch { batch; diff; scale; spec } ->
      Printf.sprintf
        "batch %d: max |difference| %.3e exceeds tolerance (scale %.3e) for %s"
        batch diff scale spec

exception Runner_error of error

let () =
  Printexc.register_printer (function
    | Runner_error e -> Some ("Runner_error: " ^ error_to_string e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Functional verification                                             *)
(* ------------------------------------------------------------------ *)

let batch_count (spec : Spec.t) =
  match spec.Spec.batch with Some b -> b | None -> 1

(* Allocate and randomly initialize main memory for a compiled program,
   returning per-batch input matrices for the reference computation. *)
let setup_memory (compiled : Compile.t) ~seed =
  let spec = compiled.Compile.spec in
  let nb = batch_count spec in
  let mk_batch name rows cols =
    Array.init nb (fun b -> Matrix.random ~rows ~cols ~seed:(seed + (31 * b) + Hashtbl.hash name))
  in
  let a_rows, a_cols =
    if spec.Spec.ta then (spec.Spec.k, spec.Spec.m) else (spec.Spec.m, spec.Spec.k)
  in
  let b_rows, b_cols =
    if spec.Spec.tb then (spec.Spec.n, spec.Spec.k) else (spec.Spec.k, spec.Spec.n)
  in
  let a = mk_batch "A" a_rows a_cols in
  let b = mk_batch "B" b_rows b_cols in
  let c = mk_batch "C" spec.Spec.m spec.Spec.n in
  let mem = Mem.create () in
  let install name (mats : Matrix.t array) rows cols =
    let dims =
      if spec.Spec.batch = None then [ rows; cols ] else [ nb; rows; cols ]
    in
    Mem.alloc_init mem name ~dims ~f:(fun idx ->
        match idx with
        | [| r; cc |] -> Matrix.get mats.(0) r cc
        | [| bi; r; cc |] -> Matrix.get mats.(bi) r cc
        | _ -> assert false)
  in
  install "A" a a_rows a_cols;
  install "B" b b_rows b_cols;
  install "C" c spec.Spec.m spec.Spec.n;
  (mem, a, b, c)

let reference (spec : Spec.t) ~a ~b ~c =
  let alpha = spec.Spec.alpha and beta = spec.Spec.beta in
  (* normalize stored operands to their logical orientation: element-wise
     prologues commute with transposition *)
  let a = if spec.Spec.ta then Array.map Matrix.transpose a else a in
  let b = if spec.Spec.tb then Array.map Matrix.transpose b else b in
  Array.iteri
    (fun i (ai : Matrix.t) ->
      match spec.Spec.fusion with
      | Spec.No_fusion -> Dgemm.gemm ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i)
      | Spec.Prologue fn ->
          Dgemm.fused_prologue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i)
      | Spec.Epilogue fn ->
          Dgemm.fused_epilogue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i))
    a

let extract_c (compiled : Compile.t) mem =
  let spec = compiled.Compile.spec in
  let nb = batch_count spec in
  let data = Mem.data mem "C" in
  Array.init nb (fun bi ->
      Matrix.init ~rows:spec.Spec.m ~cols:spec.Spec.n ~f:(fun r cc ->
          data.((bi * spec.Spec.m * spec.Spec.n) + (r * spec.Spec.n) + cc)))

(* Compare the simulated C against the reference; reports the FIRST
   mismatching batch (the diff/scale pair pinpoints it). *)
let compare_result (compiled : Compile.t) ~tol ~cref mem =
  let spec = compiled.Compile.spec in
  let got = extract_c compiled mem in
  let rec check bi =
    if bi >= Array.length cref then Ok ()
    else
      let diff = Matrix.max_abs_diff cref.(bi) got.(bi) in
      let scale =
        Array.fold_left
          (fun acc x -> Float.max acc (abs_float x))
          1.0 cref.(bi).Matrix.data
      in
      if diff > tol *. scale then
        Error
          (Mismatch { batch = bi; diff; scale; spec = Spec.to_string spec })
      else check (bi + 1)
  in
  check 0

(* ------------------------------------------------------------------ *)
(* Execution: the one path every view below goes through                *)
(* ------------------------------------------------------------------ *)

type recovery =
  | No_recovery
  | Retried of int
  | Mpe_fallback of { reason : string }

let recovery_to_string = function
  | No_recovery -> "clean"
  | Retried n -> Printf.sprintf "recovered after %d retried wait(s)" n
  | Mpe_fallback { reason } -> "MPE fallback: " ^ reason

type resilient = { seconds : float; recovery : recovery }

(* Cost of abandoning the mesh and redoing the whole (batched) problem on
   the management core, charged on top of the simulated time already spent
   when recovery gave up. *)
let mpe_fallback_seconds (compiled : Compile.t) ~at =
  let spec = compiled.Compile.spec in
  let per_batch =
    Config.mpe_gemm_seconds compiled.Compile.config ~m:spec.Spec.m
      ~n:spec.Spec.n ~k:spec.Spec.k
  in
  at +. (float_of_int (batch_count spec) *. per_batch)

let timing_memory (program : Sw_ast.Ast.program) =
  (* timing-only runs never touch data, but arrays must exist for bounds
     checking of the DMA offsets *)
  let mem = Mem.create () in
  List.iter
    (fun (d : Sw_ast.Ast.array_decl) ->
      Mem.alloc mem d.Sw_ast.Ast.array_name ~dims:d.Sw_ast.Ast.dims)
    program.Sw_ast.Ast.arrays;
  mem

type mode = Functional of { seed : int; tol : float } | Timing

(* Set up memory, simulate once, degrade to the MPE when fault recovery is
   exhausted, and — functionally — compare C against the reference. *)
let execute ?faults ?retry ?watchdog ?trace ~mode (compiled : Compile.t) =
  let mem, check =
    match mode with
    | Timing -> (timing_memory compiled.Compile.program, fun () -> Ok ())
    | Functional { seed; tol } ->
        let mem, a, b, c = setup_memory compiled ~seed in
        ( mem,
          fun () ->
            (* the reference runs on copies of the original inputs *)
            let cref = Array.map Matrix.copy c in
            reference compiled.Compile.spec ~a ~b ~c:cref;
            compare_result compiled ~tol ~cref mem )
  in
  match
    Interp.run ?trace ?faults ?watchdog ?retry ~config:compiled.Compile.config
      ~functional:(mode <> Timing) ~mem compiled.Compile.program
  with
  | Error (Error.Fault_exhausted f as e) ->
      (* graceful degradation: the mesh-side run is abandoned and the whole
         problem re-runs on the MPE, whose result is the reference by
         construction — correct, just slow *)
      Sw_obs.Metrics.incr_a "runner.mpe_fallbacks_total";
      Ok
        {
          seconds = mpe_fallback_seconds compiled ~at:f.sim_time;
          recovery = Mpe_fallback { reason = Error.to_string e };
        }
  | Error e -> Error (Sim e)
  | Ok r ->
      Result.map
        (fun () ->
          {
            seconds = r.Interp.seconds;
            recovery =
              (if r.Interp.retries > 0 then Retried r.Interp.retries
               else No_recovery);
          })
        (check ())

let verify ?(seed = 42) ?(tol = 1e-9) compiled =
  Result.map ignore (execute ~mode:(Functional { seed; tol }) compiled)

let verify_resilient ?(seed = 42) ?(tol = 1e-9) ?faults
    ?(retry = Interp.default_retry) ?watchdog ?trace compiled =
  execute ?faults ~retry ?watchdog ?trace ~mode:(Functional { seed; tol })
    compiled

let timing_resilient ?faults ?(retry = Interp.default_retry) ?watchdog ?trace
    compiled =
  execute ?faults ~retry ?watchdog ?trace ~mode:Timing compiled

let run_timing ?trace compiled =
  match execute ?trace ~mode:Timing compiled with
  | Ok r -> r.seconds
  | Error e -> raise (Runner_error e)

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

let perf_of ~flops ~seconds ~exact =
  { seconds; gflops = Interp.gflops ~flops ~seconds; exact }

let measure_exact (compiled : Compile.t) =
  let seconds = run_timing compiled in
  perf_of ~flops:(Compile.flops compiled) ~seconds ~exact:true

let traced (compiled : Compile.t) =
  let trace = Trace.create () in
  let seconds = run_timing ~trace compiled in
  (trace, perf_of ~flops:(Compile.flops compiled) ~seconds ~exact:true)

(* Estimated number of simulated events, to decide whether exact simulation
   is affordable. *)
let op_estimate (compiled : Compile.t) =
  let t = compiled.Compile.tiles in
  let blocks = t.Tile_model.nbi * t.Tile_model.nbj * batch_count compiled.Compile.spec in
  let per_block =
    8 + (t.Tile_model.nko * (4 + (t.Tile_model.panel_chunks * 10)))
  in
  let cpes =
    compiled.Compile.config.Config.mesh_rows
    * compiled.Compile.config.Config.mesh_cols
  in
  blocks * per_block * cpes

let one_block_perf (compiled : Compile.t) ~k =
  let spec = compiled.Compile.spec in
  let t = compiled.Compile.tiles in
  let block_spec =
    Spec.make ~alpha:spec.Spec.alpha ~beta:spec.Spec.beta ~ta:spec.Spec.ta
      ~tb:spec.Spec.tb ~fusion:spec.Spec.fusion ~m:t.Tile_model.mesh_m
      ~n:t.Tile_model.mesh_n ~k ()
  in
  match
    Compile.run
      (Session.create ~no_cache:true ~options:compiled.Compile.options
         ~arch:compiled.Compile.config ())
      block_spec
  with
  | Error e -> raise (Runner_error (Sim e))
  | Ok c -> run_timing c -. compiled.Compile.config.Config.mesh_startup_s

let measure ?(force_exact = false) (compiled : Compile.t) =
  if force_exact || op_estimate compiled < 3_000_000 then
    measure_exact compiled
  else begin
    let spec = compiled.Compile.spec in
    let t = compiled.Compile.tiles in
    let panel = t.Tile_model.panel_k in
    let blocks =
      float_of_int (t.Tile_model.nbi * t.Tile_model.nbj * batch_count spec)
    in
    let startup = compiled.Compile.config.Config.mesh_startup_s in
    let block_time =
      if spec.Spec.k <= 6 * panel then one_block_perf compiled ~k:spec.Spec.k
      else begin
        let k1 = 3 * panel and k2 = 6 * panel in
        let t1 = one_block_perf compiled ~k:k1 in
        let t2 = one_block_perf compiled ~k:k2 in
        let slope = (t2 -. t1) /. float_of_int (k2 - k1) in
        t1 +. (slope *. float_of_int (spec.Spec.k - k1))
      end
    in
    let seconds = startup +. (blocks *. block_time) in
    perf_of ~flops:(Compile.flops compiled) ~seconds ~exact:false
  end
