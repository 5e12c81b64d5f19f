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

let to_error = function
  | Sim e -> e
  | Mismatch _ as e -> Error.Invalid (error_to_string e)

exception Runner_error of error

let () =
  Printexc.register_printer (function
    | Runner_error e -> Some ("Runner_error: " ^ error_to_string e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Operands, reference and tolerance                                    *)
(* ------------------------------------------------------------------ *)

let batch_count (spec : Spec.t) =
  match spec.Spec.batch with Some b -> b | None -> 1

let inputs (spec : Spec.t) ~seed =
  let nb = batch_count spec in
  let mk name rows cols =
    Array.init nb (fun b ->
        Matrix.random ~rows ~cols ~seed:(seed + (31 * b) + Hashtbl.hash name))
  in
  let a_rows, a_cols =
    if spec.Spec.ta then (spec.Spec.k, spec.Spec.m) else (spec.Spec.m, spec.Spec.k)
  in
  let b_rows, b_cols =
    if spec.Spec.tb then (spec.Spec.n, spec.Spec.k) else (spec.Spec.k, spec.Spec.n)
  in
  (mk "A" a_rows a_cols, mk "B" b_rows b_cols, mk "C" spec.Spec.m spec.Spec.n)

let reference (spec : Spec.t) ~a ~b ~c =
  let alpha = spec.Spec.alpha and beta = spec.Spec.beta in
  let cref = Array.map Matrix.copy c in
  (* normalize stored operands to their logical orientation: element-wise
     prologues commute with transposition *)
  let a = if spec.Spec.ta then Array.map Matrix.transpose a else a in
  let b = if spec.Spec.tb then Array.map Matrix.transpose b else b in
  Array.iteri
    (fun i (ai : Matrix.t) ->
      match spec.Spec.fusion with
      | Spec.No_fusion -> Dgemm.gemm ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i)
      | Spec.Prologue fn ->
          Dgemm.fused_prologue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i)
      | Spec.Epilogue fn ->
          Dgemm.fused_epilogue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i))
    a;
  cref

(* relative tolerance: the simulator and the BLAS reference accumulate in
   different orders *)
let tol = 1e-9

let first_mismatch (expected : Matrix.t array) got =
  let rec go i =
    if i >= Array.length expected then None
    else
      let diff = Matrix.max_abs_diff expected.(i) got.(i) in
      let scale =
        Array.fold_left
          (fun acc x -> Float.max acc (abs_float x))
          1.0 expected.(i).Matrix.data
      in
      if diff > tol *. scale then Some (i, diff, scale) else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Simulation: main memory in, one interpreter run, main memory out     *)
(* ------------------------------------------------------------------ *)

(* (batches, rows, cols) of a 2-D or 3-D array extent *)
let extent (dims : int array) =
  let n = Array.length dims in
  ((if n = 3 then dims.(0) else 1), dims.(n - 2), dims.(n - 1))

(* batch [b] of [mats] row by row into the top-left corner of batch [b] *)
let install mem name (mats : Matrix.t array) =
  let nb, r_ext, c_ext = extent (Mem.dims mem name) in
  let data = Mem.data mem name in
  for b = 0 to nb - 1 do
    let m = mats.(b) in
    for r = 0 to m.Matrix.rows - 1 do
      Array.blit m.Matrix.data (r * m.Matrix.cols) data
        (((b * r_ext) + r) * c_ext) m.Matrix.cols
    done
  done

let simulate ?trace ?faults ?retry ?watchdog ~config
    (program : Sw_ast.Ast.program) ~operands =
  (* the one decision whether this run moves data (see Mem) *)
  let mem = Mem.create ~functional:(operands <> []) in
  List.iter
    (fun (d : Sw_ast.Ast.array_decl) ->
      Mem.alloc mem d.array_name ~dims:d.dims;
      Option.iter (install mem d.array_name)
        (List.assoc_opt d.array_name operands))
    program.Sw_ast.Ast.arrays;
  Result.map
    (fun r -> (r, mem))
    (Interp.run ?trace ?faults ?watchdog ?retry ~config ~mem program)

let read mem name ~rows ~cols =
  let nb, r_ext, c_ext = extent (Mem.dims mem name) in
  let data = Mem.data mem name in
  Array.init nb (fun b ->
      Matrix.init ~rows ~cols ~f:(fun r c ->
          data.((b * r_ext * c_ext) + (r * c_ext) + c)))

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

type mode = Functional of { seed : int } | Timing

(* Simulate once, degrade to the MPE when fault recovery is exhausted, and
   — functionally — compare C against the reference. *)
let execute ?faults ?retry ?watchdog ?trace ~mode (compiled : Compile.t) =
  let spec = compiled.Compile.spec in
  let operands, check =
    match mode with
    | Timing -> ([], fun _ -> Ok ())
    | Functional { seed } ->
        let a, b, c = inputs spec ~seed in
        ( [ ("A", a); ("B", b); ("C", c) ],
          fun mem ->
            let got = read mem "C" ~rows:spec.Spec.m ~cols:spec.Spec.n in
            match first_mismatch (reference spec ~a ~b ~c) got with
            | None -> Ok ()
            | Some (batch, diff, scale) ->
                Error
                  (Mismatch { batch; diff; scale; spec = Spec.to_string spec })
        )
  in
  match
    simulate ?trace ?faults ?watchdog ?retry ~config:compiled.Compile.config
      compiled.Compile.program ~operands
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
  | Ok (r, mem) ->
      Result.map
        (fun () ->
          {
            seconds = r.Interp.seconds;
            recovery =
              (if r.Interp.retries > 0 then Retried r.Interp.retries
               else No_recovery);
          })
        (check mem)

let verify ?(seed = 42) compiled =
  Result.map ignore (execute ~mode:(Functional { seed }) compiled)

let verify_resilient ?(seed = 42) ?faults
    ?(retry = Interp.default_retry) ?watchdog ?trace compiled =
  execute ?faults ~retry ?watchdog ?trace ~mode:(Functional { seed }) compiled

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

let measure (compiled : Compile.t) =
  if op_estimate compiled < 3_000_000 then
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
