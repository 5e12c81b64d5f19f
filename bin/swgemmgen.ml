(* swgemmgen: command-line front end of the GEMM code generator.

   Mirrors the workflow of the paper's tool: take naive C GEMM code (or an
   explicit shape), generate athread code for one SW26010Pro cluster, and
   optionally simulate it (functionally, to validate; timing-only, to
   estimate performance) or compare against the xMath baseline. *)

open Cmdliner
open Sw_core
open Sw_arch
open Sw_cli

(* ------------------------------------------------------------------ *)
(* The problem, parsed once                                             *)
(* ------------------------------------------------------------------ *)

(* Every subcommand that compiles reads the same problem description: a
   spec (a C file, or a shape and its modifiers), the --no-* option flags,
   a machine model and optionally a durable store. Each is one term that
   is resolved while the command line is parsed, so a subcommand's run
   receives a Spec.t, an Options.t and a Config.t, and a bad problem is
   reported before any work starts. Terms are applied left to right and
   the first error wins, which fixes the order errors are reported in. *)

let shape_arg =
  let doc = "Problem shape M,N,K (e.g. --shape 4096,4096,4096)." in
  Arg.(value & opt (some (t3 ~sep:',' int int int)) None & info [ "shape" ] ~doc)

let input_arg =
  let doc = "C source file containing the naive GEMM loop nest." in
  Arg.(value & pos ~rev:false 0 (some file) None & info [] ~docv:"FILE" ~doc)

let batch_arg =
  let doc = "Batch size (batched GEMM, --batch of the paper's tool)." in
  Arg.(value & opt (some int) None & info [ "batch" ] ~doc)

let fusion_arg =
  let doc =
    "Fusion pattern: 'prologue:<fn>' or 'epilogue:<fn>' with fn one of \
     quant, relu, tanh, sigmoid."
  in
  Arg.(value & opt (some string) None & info [ "fusion" ] ~doc)

let no_asm_arg =
  let doc = "Bypass the inline assembly kernel (--no-use-asm)." in
  Arg.(value & flag & info [ "no-use-asm" ] ~doc)

let no_rma_arg =
  let doc = "Disable the RMA broadcast decomposition." in
  Arg.(value & flag & info [ "no-rma" ] ~doc)

let no_hiding_arg =
  let doc = "Disable memory latency hiding (software pipelining)." in
  Arg.(value & flag & info [ "no-hiding" ] ~doc)

let bind_arg =
  let doc = "Bind an integer size parameter, e.g. --bind M=4096 (repeatable)." in
  Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "bind" ] ~doc)

let fbind_arg =
  let doc = "Bind a double parameter, e.g. --fbind alpha=1.0 (repeatable)." in
  Arg.(value & opt_all (pair ~sep:'=' string float) [] & info [ "fbind" ] ~doc)

let ta_arg =
  let doc = "Use op(A) = A^T (A stored K x M)." in
  Arg.(value & flag & info [ "ta" ] ~doc)

let tb_arg =
  let doc = "Use op(B) = B^T (B stored N x K)." in
  Arg.(value & flag & info [ "tb" ] ~doc)

let spec_of_shape ~missing shape batch fusion ta tb =
  match shape with
  | None -> Error (`Msg missing)
  | Some (m, n, k) -> (
      match
        Option.fold ~none:(Ok Spec.No_fusion) ~some:Spec.fusion_of_string
          fusion
      with
      | Error e -> Error (`Msg e)
      | Ok fusion -> (
          try Ok (Spec.make ?batch ~ta ~tb ~fusion ~m ~n ~k ())
          with Invalid_argument e -> Error (`Msg e)))

let no_problem = "give a C file or --shape M,N,K"

(* The shape spec: --shape, --batch, --fusion, --ta, --tb. [missing] is
   the error when --shape is absent. *)
let shape_spec_term ~missing =
  Term.(
    term_result
      (const (spec_of_shape ~missing)
      $ shape_arg $ batch_arg $ fusion_arg $ ta_arg $ tb_arg))

(* The full spec: a C file (with --bind/--fbind) or the shape spec. *)
let spec_term =
  let resolve input shape batch fusion ta tb binds fbinds =
    match (input, shape) with
    | Some _, Some _ -> Error (`Msg "give either a C file or --shape, not both")
    | None, _ -> spec_of_shape ~missing:no_problem shape batch fusion ta tb
    | Some file, None ->
        In_channel.with_open_text file In_channel.input_all
        |> Sw_frontend.Extract.spec_of_source ~bindings:binds ~fbindings:fbinds
        |> Result.map_error (fun e -> `Msg ("front-end: " ^ e))
  in
  Term.(
    term_result
      (const resolve $ input_arg $ shape_arg $ batch_arg $ fusion_arg $ ta_arg
     $ tb_arg $ bind_arg $ fbind_arg))

let options_term =
  let make no_asm no_rma no_hiding =
    {
      Options.use_asm = not no_asm;
      use_rma = not no_rma;
      hiding = (not no_hiding) && not no_rma;
    }
  in
  Term.(const make $ no_asm_arg $ no_rma_arg $ no_hiding_arg)

let machine_term =
  let resolve tiny arch arch_file =
    Common_flags.resolve_config ~tiny ~arch ~arch_file
  in
  Term.(
    term_result
      (const resolve $ Common_flags.tiny_arg $ Common_flags.arch_arg
     $ Common_flags.arch_file_arg))

(* The store paired with its directory, for messages that name it. *)
let store_term =
  let open_ = function
    | None -> Ok None
    | Some dir ->
        Result.map (fun st -> Some (dir, st)) (Common_flags.open_store dir)
  in
  Term.(term_result (const open_ $ Common_flags.store_arg))

(* One cacheless compilation, its typed error turned into a CLI error. *)
let compile_once ?store ?deadline ~options ~config spec =
  Compile.run
    (Session.create ~no_cache:true ~options ?store ?deadline ~arch:config ())
    spec
  |> Result.map_error (fun e -> `Msg (Error.to_string e))

(* Compile and measure on the timing path: the step perf and breakdown
   share. *)
let measure ~options ~config spec =
  Result.bind (compile_once ~options ~config spec) (fun compiled ->
      match Runner.measure compiled with
      | p -> Ok (compiled, p)
      | exception Runner.Runner_error e ->
          Error (`Msg (Runner.error_to_string e)))

let emit_arg =
  let doc = "Directory to write the generated MPE/CPE C files into." in
  Arg.(value & opt (some string) None & info [ "emit" ] ~doc)

(* ------------------------------------------------------------------ *)
(* compile                                                              *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let dump_tree_arg =
    let doc = "Print the final schedule tree." in
    Arg.(value & flag & info [ "dump-tree" ] ~doc)
  in
  let dump_ast_arg =
    let doc = "Print the generated AST." in
    Arg.(value & flag & info [ "dump-ast" ] ~doc)
  in
  let passes_arg =
    let doc =
      "Comma-separated pass names to enable (see $(b,--pass-stats) for the \
       pipeline). Required passes always run; listing them is harmless. \
       Subsumes $(b,--no-rma)/$(b,--no-hiding): with $(b,--passes) the \
       optional passes are exactly those listed."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "passes" ] ~docv:"PASS,..." ~doc)
  in
  let dump_after_arg =
    let doc = "Print the schedule tree after the named pass (repeatable)." in
    Arg.(value & opt_all string [] & info [ "dump-after" ] ~docv:"PASS" ~doc)
  in
  let pass_stats_arg =
    let doc = "Print the per-pass wall-clock and tree-size statistics." in
    Arg.(value & flag & info [ "pass-stats" ] ~doc)
  in
  let pipeline = String.concat ", " Pass_registry.names in
  (* --passes LIST: translate an explicit enabled-pass subset into the
     option record the pipeline's relevance predicates read, paired with
     whether the fusion pass stays on. Contradictory subsets
     (pipeline_hiding without rma_broadcast) are rejected by
     Options.validate inside Compile. *)
  let pipeline_term =
    let resolve (options : Options.t) = function
      | None -> Ok (options, true)
      | Some names -> (
          let mem n = List.mem n names in
          match
            List.find_opt (fun n -> not (List.mem n Pass_registry.names)) names
          with
          | Some n ->
              Error
                (`Msg
                  (Printf.sprintf "unknown pass '%s' (pipeline: %s)" n
                     pipeline))
          | None when mem "strip_mine" <> mem "rma_broadcast" ->
              Error
                (`Msg "strip_mine and rma_broadcast must be enabled together")
          | None ->
              Ok
                ( {
                    options with
                    Options.use_rma = mem "rma_broadcast";
                    hiding = mem "pipeline_hiding";
                  },
                  mem "fusion" ))
    in
    Term.(term_result (const resolve $ options_term $ passes_arg))
  in
  let dump_after_term =
    let check names =
      match
        List.find_opt (fun n -> not (List.mem n Pass_registry.names)) names
      with
      | Some n ->
          Error
            (`Msg
              (Printf.sprintf "--dump-after: unknown pass '%s' (pipeline: %s)"
                 n pipeline))
      | None -> Ok names
    in
    Term.(term_result (const check $ dump_after_arg))
  in
  let run spec config (options, keep_fusion) dump_after store emit dump_tree
      dump_ast no_cache pass_stats deadline log_level log_file =
    Common_flags.with_logging ?level:log_level ?file:log_file @@ fun () ->
    let spec =
      if keep_fusion then spec else { spec with Spec.fusion = Spec.No_fusion }
    in
    let observer (p : Pass.t) (st : Pass.state) =
      if List.mem p.Pass.name dump_after then (
        Printf.printf "=== after pass %s ===\n" p.Pass.name;
        match st.Pass.tree with
        | Some t -> print_string (Sw_tree.Tree.to_string t)
        | None -> print_endline "(no schedule tree yet)")
    in
    let session =
      Session.create ~options ~debug:true ~no_cache ~observer
        ?store:(Option.map snd store) ?deadline ~arch:config ()
    in
    (match (store, session.Session.cache) with
    | Some (dir, _), Some _ ->
        let n = Session.warm_start session in
        if n > 0 then Printf.printf "warm start: %d plan(s) from %s\n" n dir
    | _ -> ());
    match
      Compile.generation_seconds (fun () -> Compile.run_exn session spec)
    with
    | exception Error.Sim_error e -> Error (`Msg (Error.to_string e))
    | compiled, secs ->
        Printf.printf "compiled %s [%s] in %.3f ms\n"
          (Spec.to_string compiled.Compile.spec)
          (Options.name options) (1000.0 *. secs);
        Printf.printf "  %s\n" (Tile_model.to_string compiled.Compile.tiles);
        Printf.printf "  SPM bytes per CPE: %d of %d\n"
          (Sw_ast.Ast.spm_bytes compiled.Compile.program)
          config.Config.spm_bytes;
        if pass_stats then (
          print_string (Pass.report compiled.Compile.pass_stats);
          Printf.printf "  pipeline total: %.1f us\n"
            (1e6 *. Pass.total_seconds compiled.Compile.pass_stats));
        if dump_tree then
          print_string (Sw_tree.Tree.to_string compiled.Compile.tree);
        if dump_ast then
          print_string
            (Sw_ast.Ast.to_string compiled.Compile.program.Sw_ast.Ast.body);
        (match emit with
        | Some dir ->
            let mpe, cpe = Cemit.write_files compiled ~dir in
            Printf.printf "  wrote %s and %s\n" mpe cpe
        | None -> ());
        Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ spec_term $ machine_term $ pipeline_term $ dump_after_term
       $ store_term $ emit_arg $ dump_tree_arg $ dump_ast_arg
       $ Common_flags.no_cache_arg $ pass_stats_arg $ Common_flags.deadline_arg
       $ Common_flags.log_level_arg $ Common_flags.log_file_arg))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Generate athread code for a GEMM problem") term

(* ------------------------------------------------------------------ *)
(* verify                                                               *)
(* ------------------------------------------------------------------ *)

let inject_faults_arg =
  let doc =
    "Inject a deterministic fault plan into the simulated run: $(docv) is \
     SEED or SEED:KIND,KIND with kinds jitter, stall, delay, drop, \
     straggler, flip. The run executes with bounded retry and MPE fallback; \
     the recovery outcome, injection statistics and a trace summary are \
     reported."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"SEED[:KINDS]" ~doc)

(* SEEDS[:KINDS]: SEEDS is one integer seed or a comma-separated matrix of
   them; each seed names an independent deterministic fault plan and the
   matrix is verified concurrently over --jobs host domains. *)
let parse_inject = function
  | None -> Ok None
  | Some s -> (
      (* a comma list, converted left to right; the first bad item is the
         error *)
      let collect conv error items =
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest -> (
              match conv item with
              | Some v -> go (v :: acc) rest
              | None -> Error (`Msg (error item)))
        in
        go [] (String.split_on_char ',' items)
      in
      let seeds =
        collect int_of_string_opt (fun _ ->
            "--inject-faults: SEED must be an integer")
      and kinds =
        collect Fault.kind_of_string
          (Printf.sprintf "--inject-faults: unknown fault kind '%s'")
      in
      match String.split_on_char ':' s with
      | [ ss ] -> Result.map (fun ss -> Some (ss, None)) (seeds ss)
      | [ ss; ks ] ->
          Result.bind (seeds ss) (fun ss ->
              Result.map (fun ks -> Some (ss, Some ks)) (kinds ks))
      | _ ->
          Error
            (`Msg "--inject-faults: expected SEED[,SEED..] or SEEDS:kind,kind"))

let fault_plan_for ~kinds seed =
  match kinds with
  | None -> Fault.plan ~seed ()
  | Some ks ->
      Fault.plan ~spec:(Fault.spec_with ~kinds:ks Fault.default_spec) ~seed ()

let verify_cmd =
  let inject_term =
    Term.(term_result (const parse_inject $ inject_faults_arg))
  in
  let run spec options config store inject jobs metrics deadline log_level
      log_file =
    Common_flags.with_logging ?level:log_level ?file:log_file @@ fun () ->
    Common_flags.with_metrics metrics @@ fun () ->
    match
      compile_once ?store:(Option.map snd store) ?deadline ~options ~config spec
    with
    | Error _ as e -> e
    | Ok compiled -> (
        match inject with
        | None -> (
            match Runner.verify compiled with
            | Ok () ->
                Printf.printf "verification PASSED for %s [%s]\n"
                  (Spec.to_string compiled.Compile.spec)
                  (Options.name options);
                Ok ()
            | Error e ->
                Error
                  (`Msg ("verification FAILED: " ^ Runner.error_to_string e)))
        | Some (seeds, kinds) -> (
            (* Each seed of the matrix is an independent job: fanned out
               over --jobs domains, its report buffered and printed in seed
               order, so the output is identical for every --jobs value.
               The first failing seed (in matrix order) decides the exit. *)
            let verify_seed seed =
              let faults = fault_plan_for ~kinds seed in
              let trace = Trace.create () in
              let buf = Buffer.create 256 in
              let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
              let outcome =
                match Runner.verify_resilient ~faults ~trace compiled with
                | Ok r ->
                    p "verification PASSED under faults for %s [%s]\n"
                      (Spec.to_string compiled.Compile.spec)
                      (Options.name options);
                    p "  injected: %s (seed %d)\n"
                      (Fault.stats_to_string faults) (Fault.seed faults);
                    p "  recovery: %s\n"
                      (Runner.recovery_to_string r.Runner.recovery);
                    p "  simulated time: %.3f ms\n" (1000.0 *. r.Runner.seconds);
                    let mesh =
                      (config.Config.mesh_rows, config.Config.mesh_cols)
                    in
                    p "  trace: %s\n" (Trace.summary trace ~mesh);
                    p "  CPE(0,0): %s\n"
                      (Trace.gantt trace ~rid:0 ~cid:0 ~width:64);
                    None
                | Error e ->
                    p "  injected: %s (seed %d)\n"
                      (Fault.stats_to_string faults) (Fault.seed faults);
                    Some
                      ("verification under faults FAILED (typed): "
                      ^ Runner.error_to_string e)
              in
              (Buffer.contents buf, outcome)
            in
            let outcomes =
              Sw_host.Pool.with_pool ~jobs (fun pool ->
                  Sw_host.Pool.map pool verify_seed seeds)
            in
            List.iter (fun (out, _) -> print_string out) outcomes;
            match List.find_map (fun (_, failed) -> failed) outcomes with
            | Some msg -> Error (`Msg msg)
            | None -> Ok ()))
  in
  let term =
    Term.(
      term_result
        (const run $ spec_term $ options_term $ machine_term $ store_term
       $ inject_term $ Common_flags.jobs_arg $ Common_flags.metrics_arg
       $ Common_flags.deadline_arg $ Common_flags.log_level_arg
       $ Common_flags.log_file_arg))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Execute the generated code functionally on the simulated cluster \
          and compare against the reference DGEMM (use --tiny for large \
          shapes)")
    term

(* ------------------------------------------------------------------ *)
(* perf                                                                 *)
(* ------------------------------------------------------------------ *)

let perf_cmd =
  let run spec options config =
    Result.map
      (fun (compiled, p) ->
        let x = Sw_xmath.Xmath.measure config compiled.Compile.spec in
        Printf.printf "%s [%s]\n"
          (Spec.to_string compiled.Compile.spec)
          (Options.name options);
        Printf.printf "  generated: %10.2f Gflops (%5.2f%% of peak)%s\n"
          p.Runner.gflops
          (100.0 *. p.Runner.gflops /. Config.peak_gflops config)
          (if p.Runner.exact then "" else "  [extrapolated]");
        Printf.printf "  xMath:     %10.2f Gflops (%5.2f%% of peak)\n"
          x.Sw_xmath.Xmath.gflops
          (100.0 *. x.Sw_xmath.Xmath.gflops /. Config.peak_gflops config);
        Printf.printf "  speedup:   %10.2fx\n"
          (p.Runner.gflops /. x.Sw_xmath.Xmath.gflops))
      (measure ~options ~config spec)
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Estimate performance and compare against xMath")
    Term.(term_result (const run $ spec_term $ options_term $ machine_term))

(* ------------------------------------------------------------------ *)
(* profile                                                              *)
(* ------------------------------------------------------------------ *)

let out_dir_arg =
  let doc = "Directory the profile artifacts are written into." in
  Arg.(value & opt string "results" & info [ "out-dir" ] ~docv:"DIR" ~doc)

(* Both artifacts are named after the padded spec, e.g.
   profile-gemm_64x64x64.json: keep only filename-safe characters. *)
let file_slug s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '-' || c = '.'
      then c
      else '_')
    s

let profile_cmd =
  let run spec options config out_dir =
    (* Everything below runs under a live registry and span sink: the
       host side (passes, compile) lands on pid 1, the simulated
       cluster (one track per CPE) on pid 0 of the same trace file. *)
    let registry = Sw_obs.Metrics.create () in
    Sw_obs.Metrics.install registry;
    let sink = Sw_obs.Span.create () in
    Sw_obs.Span.install sink;
    Sw_obs.Span.set_process_name sink ~pid:Sw_obs.Span.host_pid
      "generator (host time)";
    Sw_obs.Span.set_thread_name sink ~pid:Sw_obs.Span.host_pid ~tid:0
      "pipeline";
    let finally () =
      Sw_obs.Span.uninstall ();
      Sw_obs.Metrics.uninstall ()
    in
    Fun.protect ~finally @@ fun () ->
    match compile_once ~options ~config spec with
    | Error _ as e -> e
    | Ok compiled -> (
        match
          Sw_obs.Span.ambient ~cat:"sim" "simulate" (fun () ->
              Runner.traced compiled)
        with
        | exception Runner.Runner_error e ->
            Error (`Msg (Runner.error_to_string e))
        | trace, perf ->
            let mesh = (config.Config.mesh_rows, config.Config.mesh_cols) in
            let util = Trace.utilization trace ~mesh in
            let prof = Obs_bridge.profile trace in
            let roofline =
              Sw_obs.Profile.roofline
                ~flops:(float_of_int (Compile.flops compiled))
                ~bytes:(float_of_int util.Trace.dma_bytes)
                ~seconds:perf.Runner.seconds
                ~peak_gflops:(Config.peak_gflops config)
                ~bw_gbytes_per_s:(config.Config.mem_bw_bytes_per_s /. 1e9)
            in
            Obs_bridge.to_chrome trace ~mesh sink;
            let slug = file_slug (Spec.to_string compiled.Compile.spec) in
            let report_path =
              Filename.concat out_dir (Printf.sprintf "profile-%s.json" slug)
            in
            let trace_path =
              Filename.concat out_dir
                (Printf.sprintf "profile-%s.trace.json" slug)
            in
            let report =
              Sw_obs.Json.Obj
                [
                  ("spec", String (Spec.to_string compiled.Compile.spec));
                  ("options", String (Options.name options));
                  ("gflops", Float perf.Runner.gflops);
                  ("seconds", Float perf.Runner.seconds);
                  ("exact", Bool perf.Runner.exact);
                  ("dma_bytes", Int util.Trace.dma_bytes);
                  ("rma_bytes", Int util.Trace.rma_bytes);
                  ("profile", Sw_obs.Profile.to_json prof);
                  ("roofline", Sw_obs.Profile.roofline_to_json roofline);
                  ( "metrics",
                    Sw_obs.Metrics.to_json
                      (Sw_obs.Metrics.snapshot registry) );
                ]
            in
            Sw_obs.Json.write_file ~pretty:true ~path:report_path report;
            Sw_obs.Json.write_file ~path:trace_path
              (Sw_obs.Span.to_chrome sink);
            Printf.printf "profile of %s [%s]\n"
              (Spec.to_string compiled.Compile.spec)
              (Options.name options);
            Printf.printf "  %10.2f Gflops (%5.2f%% of peak)%s\n"
              perf.Runner.gflops
              (100.0 *. perf.Runner.gflops /. Config.peak_gflops config)
              (if perf.Runner.exact then "" else "  [extrapolated]");
            print_string (Sw_obs.Profile.to_text prof);
            Printf.printf
              "  roofline: AI %.2f flop/B vs ridge %.2f -> %s (attainable \
               %.2f Gflops)\n"
              roofline.Sw_obs.Profile.ai roofline.Sw_obs.Profile.ridge
              (Sw_obs.Profile.verdict_to_string
                 roofline.Sw_obs.Profile.verdict)
              roofline.Sw_obs.Profile.attainable_gflops;
            Printf.printf "  [wrote %s]\n  [wrote %s]\n" report_path
              trace_path;
            Ok ())
  in
  let term =
    Term.(
      term_result
        (const run $ spec_term $ options_term $ machine_term $ out_dir_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Trace a simulated run and report the latency-hiding profile: the \
          per-CPE compute/exposed-DMA/exposed-RMA/barrier/idle partition, \
          hidden-vs-exposed communication per pipeline level, and a \
          roofline verdict. Writes a JSON report and a Chrome trace-event \
          file (open at https://ui.perfetto.dev)")
    term

(* ------------------------------------------------------------------ *)
(* breakdown                                                            *)
(* ------------------------------------------------------------------ *)

let breakdown_cmd =
  let spec_term =
    let resolve shape =
      spec_of_shape ~missing:"give --shape M,N,K" shape None None false false
    in
    Term.(term_result (const resolve $ shape_arg))
  in
  let run spec config =
    Printf.printf "performance breakdown for %dx%dx%d (peak %.2f Gflops)\n"
      spec.Spec.m spec.Spec.n spec.Spec.k (Config.peak_gflops config);
    let rows =
      List.fold_left
        (fun acc (name, options) ->
          Result.bind acc (fun () ->
              Result.map
                (fun (_, p) ->
                  Printf.printf "  %-16s %10.2f Gflops\n" name p.Runner.gflops)
                (measure ~options ~config spec)))
        (Ok ()) Options.breakdown
    in
    Result.map
      (fun () ->
        let x = Sw_xmath.Xmath.measure config spec in
        Printf.printf "  %-16s %10.2f Gflops\n" "xMath" x.Sw_xmath.Xmath.gflops)
      rows
  in
  let term = Term.(term_result (const run $ spec_term $ machine_term)) in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Per-optimization performance attribution (Fig. 13 of the paper)")
    term

(* ------------------------------------------------------------------ *)
(* tune                                                                 *)
(* ------------------------------------------------------------------ *)

let tune_cmd =
  let budget_arg =
    let doc =
      "Simulator-measurement budget of the search; candidates beyond it \
       are budget-pruned in bound order."
    in
    Arg.(
      value
      & opt int Sw_tune.Search.default_budget
      & info [ "budget" ] ~docv:"N" ~doc)
  in
  let tune_db_arg =
    let doc =
      "Consult and record winners in the tuning database rooted at \
       $(docv); a hit for the shape class answers instantly with zero \
       measurements."
    in
    Arg.(value & opt (some string) None & info [ "tune-db" ] ~docv:"DIR" ~doc)
  in
  let explain_arg =
    let doc =
      "Print the full audit trail: every enumerated candidate with its \
       verdict (measured, legality-rejected, bound-pruned, budget-pruned) \
       and the pruned-vs-measured totals."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run spec config budget jobs tune_db explain =
    if budget < 1 then Error (`Msg "--budget must be at least 1")
    else
      let db =
        Option.map (fun dir -> Sw_tune.Tune_db.open_ ~dir ()) tune_db
      in
      Printf.printf "tuning %s on %s (%dx%d mesh, vendor kernel %dx%dx%d)\n"
        (Spec.to_string spec) config.Config.name config.Config.mesh_rows
        config.Config.mesh_cols config.Config.mk_m config.Config.mk_n
        config.Config.mk_k;
      match Sw_tune.Search.run ~budget ~jobs ?db ~config spec with
      | Error e -> Error (`Msg e)
      | Ok o ->
          let open Sw_tune in
          if o.Search.from_db then
            print_endline
              "  tuning DB hit: recorded winner, zero measurements";
          Printf.printf "  winner:  %-36s %10.2f Gflops\n"
            (Space.key o.Search.winner) o.Search.gflops;
          let default_c = Space.default config spec in
          if o.Search.default_gflops > 0.0 then
            Printf.printf "  default: %-36s %10.2f Gflops  (tuned %.2fx)\n"
              (Space.key default_c) o.Search.default_gflops
              (o.Search.gflops /. o.Search.default_gflops);
          let count p =
            List.length (List.filter (fun e -> p e.Search.verdict) o.Search.entries)
          in
          let legality =
            count (function Search.Legality _ -> true | _ -> false)
          and bound =
            count (function Search.Bound_pruned _ -> true | _ -> false)
          and over_budget =
            count (function Search.Budget_pruned _ -> true | _ -> false)
          and failed =
            count (function Search.Failed _ -> true | _ -> false)
          in
          if not o.Search.from_db then
            Printf.printf
              "  space: %d candidates -> %d measured, %d pruned (%d \
               legality, %d bound, %d budget)%s\n"
              (List.length o.Search.entries)
              o.Search.measurements
              (legality + bound + over_budget)
              legality bound over_budget
              (if failed > 0 then Printf.sprintf ", %d failed" failed
               else "");
          if Option.is_some db && not o.Search.from_db then
            print_endline "  [winner recorded in tuning DB]";
          if explain then
            List.iter
              (fun e ->
                let verdict =
                  match e.Search.verdict with
                  | Search.Measured g ->
                      Printf.sprintf "measured  %10.2f Gflops" g
                  | Search.Legality r -> "legality: " ^ r
                  | Search.Bound_pruned { bound; best } ->
                      Printf.sprintf
                        "bound-pruned (bound %.2f <= best %.2f)" bound best
                  | Search.Budget_pruned { bound } ->
                      Printf.sprintf "budget-pruned (bound %.2f)" bound
                  | Search.Failed r -> "failed: " ^ r
                in
                Printf.printf "    %-36s %s\n" (Space.key e.Search.candidate)
                  verdict)
              o.Search.entries;
          Ok ()
  in
  let term =
    Term.(
      term_result
        (const run
        $ shape_spec_term ~missing:no_problem
        $ machine_term $ budget_arg $ Common_flags.jobs_arg $ tune_db_arg
        $ explain_arg))
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the decomposition space (LDM tiles, strip-mine factors, \
          buffering, fusion placement) with analytic pruning and measured \
          refinement; winners persist in the tuning DB ($(b,--tune-db))")
    term

(* ------------------------------------------------------------------ *)
(* fuzz                                                                 *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let cases_arg =
    let doc = "Number of generated cases." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Master seed of the case generator. The whole campaign — case \
       stream, per-case log lines, summary — is a pure function of this \
       seed (and the corpus contents), independent of $(b,--jobs)."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let corpus_arg =
    let doc =
      "Load and persist the coverage corpus in this directory (one JSON \
       file per novel coverage key). Omitted: the corpus is in-memory only."
    in
    Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)
  in
  let repro_arg =
    let doc =
      "Directory where failing cases are written as shrunk, replayable \
       repro files."
    in
    Arg.(value & opt string "fuzz-repro" & info [ "repro-dir" ] ~docv:"DIR" ~doc)
  in
  let max_shrink_arg =
    let doc = "Total oracle-run budget spent shrinking failures." in
    Arg.(value & opt int 200 & info [ "max-shrink" ] ~docv:"N" ~doc)
  in
  let sabotage_arg =
    let doc =
      "Deliberately mis-compile the named pass (testing the testers: the \
       fuzzer must catch the planted bug; currently supported by \
       strip_mine)."
    in
    Arg.(value & opt (some string) None & info [ "sabotage" ] ~docv:"PASS" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-run the case of a repro (or corpus) JSON file instead of \
       fuzzing; exits 0 iff the recorded failure reproduces."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let arch_pool_arg =
    let doc =
      "Restrict fresh cases to this architecture preset (repeatable; see \
       $(b,swgemmgen arch list)). Mutated corpus entries keep their own \
       preset."
    in
    Arg.(value & opt_all string [] & info [ "arch" ] ~docv:"NAME" ~doc)
  in
  let arch_matrix_arg =
    let doc =
      "Fuzz over the standard conformance matrix of mesh geometries — \
       tiny-8x8, tiny4 (4x4), tiny-8x4, tiny-16x16 — instead of the \
       default tiny mix; unioned with any $(b,--arch)."
    in
    Arg.(value & flag & info [ "arch-matrix" ] ~doc)
  in
  let fuzz_tune_db_arg =
    let doc =
      "Draw machine configurations from the tuned winners recorded in \
       the tuning database at $(docv) (as $(i,preset@MxNxK) ids), so \
       the three-way oracle exercises exactly the decompositions the \
       tuner would serve; unioned with any $(b,--arch)."
    in
    Arg.(value & opt (some string) None & info [ "tune-db" ] ~docv:"DIR" ~doc)
  in
  let run cases seed jobs inject arch_pool arch_matrix tune_db corpus_dir
      repro_dir max_shrink sabotage replay metrics =
    Common_flags.with_metrics metrics @@ fun () ->
    match replay with
    | Some path -> (
        match Sw_check.Fuzz.replay ~print:print_endline path with
        | Ok true -> Ok ()
        | Ok false -> Error (`Msg "replay did not reproduce the failure")
        | Error e -> Error (`Msg ("replay: " ^ e)))
    | None -> (
        (* tuned winners fuzz as preset@MxNxK ids: match each record's
           mesh class back to the preset it was tuned on *)
        let tuned_pool =
          match tune_db with
          | None -> Ok []
          | Some dir -> (
              let db = Sw_tune.Tune_db.open_ ~dir () in
              match Sw_tune.Tune_db.records db with
              | [] ->
                  Error
                    (`Msg
                      (Printf.sprintf "--tune-db: no tuning records under %s"
                         dir))
              | recs -> (
                  let ids =
                    List.filter_map
                      (fun (r : Sw_tune.Tune_db.record) ->
                        match
                          List.find_opt
                            (fun (d : Arch_desc.t) ->
                              Sw_tune.Tune_db.mesh_class (Arch_desc.to_config d)
                              = r.Sw_tune.Tune_db.mesh_class)
                            Arch_desc.all
                        with
                        | None -> None
                        | Some d ->
                            let m, n, k =
                              r.Sw_tune.Tune_db.winner.Sw_tune.Space.mk
                            in
                            let id =
                              Printf.sprintf "%s@%dx%dx%d" d.Arch_desc.name m
                                n k
                            in
                            Sw_check.Case.config_id_of_string id)
                      recs
                  in
                  match List.sort_uniq compare ids with
                  | [] ->
                      Error
                        (`Msg
                          "--tune-db: no record matches a registered arch \
                           preset")
                  | ids -> Ok ids))
        in
        let archs_result =
          match tuned_pool with
          | Error _ as e -> e
          | Ok tuned ->
          let pool =
            (if arch_matrix then
               [ "tiny-8x8"; "tiny4"; "tiny-8x4"; "tiny-16x16" ]
             else [])
            @ arch_pool @ tuned
          in
          match pool with
          | [] -> Ok None
          | names -> (
              match
                List.find_opt
                  (fun n -> Sw_check.Case.config_id_of_string n = None)
                  names
              with
              | Some n ->
                  Error
                    (`Msg
                      (Printf.sprintf "--arch: unknown preset '%s' (known: %s)"
                         n
                         (String.concat ", " (Arch_desc.names ()))))
              | None -> Ok (Some (Array.of_list names)))
        in
        match
          ( parse_inject inject,
            (match sabotage with
            | Some p when not (List.mem p Pass_registry.names) ->
                Error (`Msg (Printf.sprintf "--sabotage: unknown pass '%s'" p))
            | _ -> Ok ()),
            archs_result )
        with
        | (Error _ as e), _, _ -> e
        | _, (Error _ as e), _ -> e
        | _, _, (Error _ as e) -> e
        | Ok inj, Ok (), Ok archs ->
            if cases <= 0 then Error (`Msg "--cases must be positive")
            else
              let fault =
                Option.map
                  (fun (seeds, kinds) -> (Array.of_list seeds, kinds))
                  inj
              in
              let summary =
                Sw_check.Fuzz.run
                  {
                    Sw_check.Fuzz.cases;
                    seed;
                    jobs;
                    archs;
                    fault;
                    corpus_dir;
                    repro_dir;
                    max_shrink;
                    sabotage;
                    print = print_endline;
                  }
              in
              if summary.Sw_check.Fuzz.disagreements = [] then Ok ()
              else
                Error
                  (`Msg
                    (Printf.sprintf
                       "%d disagreement(s); shrunk repro files written under \
                        %s"
                       (List.length summary.Sw_check.Fuzz.disagreements)
                       repro_dir)))
  in
  let term =
    Term.(
      term_result
        (const run $ cases_arg $ seed_arg $ Common_flags.jobs_arg
       $ inject_faults_arg $ arch_pool_arg $ arch_matrix_arg
       $ fuzz_tune_db_arg $ corpus_arg $ repro_arg $ max_shrink_arg
       $ sabotage_arg $ replay_arg $ Common_flags.metrics_arg))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: random specs computed by three \
          independent routes (direct C interpretation, generated code on \
          the simulated cluster, the BLAS reference) that must agree")
    term

(* ------------------------------------------------------------------ *)
(* arch                                                                 *)
(* ------------------------------------------------------------------ *)

let spm_budget_line d =
  let needed = Arch_desc.spm_needed_bytes d in
  Printf.sprintf "%d/%d bytes %s" needed d.Arch_desc.spm_bytes
    (if needed <= d.Arch_desc.spm_bytes then "ok" else "OVERFLOW")

let arch_cmd =
  let list_run () =
    Printf.printf "%-16s %-7s %-11s %10s %12s  %s\n" "NAME" "MESH"
      "MICROKERNEL" "SPM" "PEAK" "SPM BUDGET";
    List.iter
      (fun (d : Arch_desc.t) ->
        Printf.printf "%-16s %-7s %-11s %10d %9.2f GF  %s\n" d.Arch_desc.name
          (Printf.sprintf "%dx%d" d.Arch_desc.mesh.Arch_desc.rows
             d.Arch_desc.mesh.Arch_desc.cols)
          (Printf.sprintf "%dx%dx%d" d.Arch_desc.mk.Arch_desc.m
             d.Arch_desc.mk.Arch_desc.n d.Arch_desc.mk.Arch_desc.k)
          d.Arch_desc.spm_bytes (Arch_desc.peak_gflops d)
          (spm_budget_line d))
      Arch_desc.all;
    print_endline "aliases: tiny-2x2 = tiny2, tiny-4x4 = tiny4";
    Ok ()
  in
  let show_run name arch_file json =
    let desc =
      match arch_file with
      | Some path ->
          Result.map_error
            (fun e -> `Msg ("--arch-file: " ^ e))
            (Arch_desc.load_file path)
      | None -> (
          match name with
          | None -> Error (`Msg "give a preset NAME or --arch-file FILE")
          | Some n -> (
              match Arch_desc.find n with
              | Some d -> Ok d
              | None ->
                  Error
                    (`Msg
                      (Printf.sprintf "unknown preset '%s' (known: %s)" n
                         (String.concat ", " (Arch_desc.names ()))))))
    in
    match desc with
    | Error e -> Error e
    | Ok d ->
        if json then (
          print_endline
            (Sw_obs.Json.to_string ~pretty:true (Arch_desc.to_json d));
          Ok ())
        else begin
          let m = d.Arch_desc.mesh in
          let mk = d.Arch_desc.mk in
          Printf.printf "%s\n" d.Arch_desc.name;
          Printf.printf "  mesh:         %dx%d (%d CPEs)\n" m.Arch_desc.rows
            m.Arch_desc.cols (m.Arch_desc.rows * m.Arch_desc.cols);
          Printf.printf "  micro-kernel: %dx%dx%d (efficiency %.3f, call \
                         overhead %.3g s)\n"
            mk.Arch_desc.m mk.Arch_desc.n mk.Arch_desc.k
            mk.Arch_desc.efficiency mk.Arch_desc.call_overhead_s;
          Printf.printf "  peak:         %.2f Gflops\n"
            (Arch_desc.peak_gflops d);
          Printf.printf "  SPM:          %s\n" (spm_budget_line d);
          Printf.printf "  CPE:          %.3g Hz, %g SIMD flops/cycle, %g \
                         naive flops/cycle, %g ew cycles/elem\n"
            d.Arch_desc.cpe.Arch_desc.freq_hz
            d.Arch_desc.cpe.Arch_desc.simd_flops_per_cycle
            d.Arch_desc.cpe.Arch_desc.naive_flops_per_cycle
            d.Arch_desc.cpe.Arch_desc.ew_cycles_per_elem;
          Printf.printf "  DMA:          %.3g B/s, latency %.3g s\n"
            d.Arch_desc.dma.Arch_desc.bw_bytes_per_s
            d.Arch_desc.dma.Arch_desc.latency_s;
          Printf.printf "  RMA:          %.3g B/s, latency %.3g s\n"
            d.Arch_desc.rma.Arch_desc.bw_bytes_per_s
            d.Arch_desc.rma.Arch_desc.latency_s;
          Printf.printf "  sync:         %.3g s; mesh startup %.3g s\n"
            d.Arch_desc.sync_latency_s d.Arch_desc.mesh_startup_s;
          Printf.printf "  MPE:          %.3g Hz, stream %.3g B/s\n"
            d.Arch_desc.mpe.Arch_desc.mpe_freq_hz
            d.Arch_desc.mpe.Arch_desc.stream_bw_bytes_per_s;
          Printf.printf "  NoC:          link %.3g B/s, src %.3g B/s, \
                         latency %.3g s\n"
            d.Arch_desc.noc.Arch_desc.link_bw_bytes_per_s
            d.Arch_desc.noc.Arch_desc.src_bw_bytes_per_s
            d.Arch_desc.noc.Arch_desc.noc_latency_s;
          (match Arch_desc.validate d with
          | Ok () -> Printf.printf "  validation:   ok\n"
          | Error e ->
              Printf.printf "  validation:   FAILED: %s\n"
                (Arch_desc.error_to_string e));
          Ok ()
        end
  in
  let name_arg =
    let doc = "Preset name (see $(b,swgemmgen arch list))." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the description as JSON — the exact schema $(b,--arch-file) \
       loads."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list"
         ~doc:"List the architecture presets with geometry and SPM budget")
      Term.(term_result (const list_run $ const ()))
  in
  let show_cmd =
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Show one architecture description: geometry, derived peak, SPM \
            budget check, and (with --json) the loadable JSON form")
      Term.(
        term_result
          (const show_run $ name_arg $ Common_flags.arch_file_arg $ json_arg))
  in
  Cmd.group
    (Cmd.info "arch"
       ~doc:"Inspect the parametric architecture descriptions")
    [ list_cmd; show_cmd ]

(* ------------------------------------------------------------------ *)
(* cache                                                                *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let store_req_arg =
    let doc = "The durable plan store directory to operate on." in
    Arg.(
      required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let stat_run dir =
    Result.map
      (fun st ->
        print_endline (Sw_host.Store.stats_to_string (Sw_host.Store.stats st)))
      (Common_flags.open_store dir)
  in
  let budget_arg =
    let pos_int =
      let parse s =
        match int_of_string_opt s with
        | Some b when b > 0 -> Ok b
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "--budget: '%s' is not a positive byte count" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    let doc = "Byte budget to evict down to (least recently used first)." in
    Arg.(
      required & opt (some pos_int) None & info [ "budget" ] ~docv:"BYTES" ~doc)
  in
  let gc_run dir budget =
    Result.map
      (fun st ->
        let evicted = Sw_host.Store.gc st ~budget_bytes:budget () in
        let s = Sw_host.Store.stats st in
        Printf.printf "evicted=%d entries=%d bytes=%d\n" evicted
          s.Sw_host.Store.entries s.Sw_host.Store.bytes)
      (Common_flags.open_store dir)
  in
  let verify_run dir =
    Result.bind (Common_flags.open_store dir) (fun st ->
        let r = Sw_host.Store.verify st in
        print_endline (Sw_host.Store.verify_to_string r);
        if r.Sw_host.Store.report_served_corrupt > 0 then
          Error
            (`Msg
              (Printf.sprintf
                 "store has served %d corrupt payload(s) — the durability \
                  invariant is broken"
                 r.Sw_host.Store.report_served_corrupt))
        else Ok ())
  in
  let stat_cmd =
    Cmd.v
      (Cmd.info "stat"
         ~doc:
           "Print the store's entry count, byte size and cumulative \
            counters (quarantined, stale, served_corrupt, hits_total, \
            misses_total, evicted_bytes) as key=value pairs")
      Term.(term_result (const stat_run $ store_req_arg))
  in
  let gc_cmd =
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict least-recently-used entries until the store fits the \
            given byte budget")
      Term.(term_result (const gc_run $ store_req_arg $ budget_arg))
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-validate every entry (magic, schema, length, checksum), \
            quarantining failures; exits non-zero if a corrupt payload \
            was ever served")
      Term.(term_result (const verify_run $ store_req_arg))
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain a durable plan store (see --store)")
    [ stat_cmd; gc_cmd; verify_cmd ]

(* ------------------------------------------------------------------ *)
(* debug                                                                *)
(* ------------------------------------------------------------------ *)

let debug_cmd =
  let out_dir_arg =
    let doc = "Directory the flight record is written into." in
    Arg.(value & opt string "results" & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  (* An on-demand flight dump: run one compilation at debug verbosity with
     the recorder installed and dump unconditionally — no failure needed.
     The resulting file has the same schema as the automatic failure dumps. *)
  let dump_run spec options config store out_dir =
    let flight = Sw_obs.Flight.create ~dir:out_dir () in
    Sw_obs.Log.install (Sw_obs.Log.create ~min_level:Sw_obs.Log.Debug ());
    Sw_obs.Flight.install flight;
    Fun.protect ~finally:(fun () ->
        Sw_obs.Flight.uninstall ();
        Sw_obs.Log.uninstall ())
    @@ fun () ->
    (match compile_once ?store:(Option.map snd store) ~options ~config spec with
    | Ok compiled ->
        Printf.printf "compiled %s [%s]\n"
          (Spec.to_string compiled.Compile.spec)
          (Options.name options)
    | Error (`Msg e) -> Printf.printf "compile failed: %s\n" e);
    let path = Sw_obs.Flight.dump ~reason:"debug.dump" flight in
    Printf.printf "flight record: %s\n" path;
    Ok ()
  in
  let dump_cmd =
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "Run one compilation with the flight recorder and a debug-level \
            event log installed, then dump the flight record \
            unconditionally and print its path")
      Term.(
        term_result
          (const dump_run $ spec_term $ options_term $ machine_term
         $ store_term $ out_dir_arg))
  in
  Cmd.group
    (Cmd.info "debug"
       ~doc:"Forensic helpers: on-demand flight-recorder dumps")
    [ dump_cmd ]

(* ------------------------------------------------------------------ *)
(* client: drive a running swgemmd over the wire protocol               *)
(* ------------------------------------------------------------------ *)

(* The daemon to talk to: --socket, or --port on --host. *)
let connect_term =
  let socket_arg =
    let doc = "Connect to the daemon's Unix socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Connect to the daemon over TCP on port $(docv)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "TCP host the daemon listens on." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let resolve socket port host =
    match (socket, port) with
    | Some _, Some _ -> Error (`Msg "give --socket or --port, not both")
    | Some path, None -> Ok (fun () -> Sw_host.Client.connect_unix ~path)
    | None, Some port ->
        Ok (fun () -> Sw_host.Client.connect_tcp ~host ~port ())
    | None, None -> Error (`Msg "give --socket PATH or --port PORT")
  in
  Term.(term_result (const resolve $ socket_arg $ port_arg $ host_arg))

let with_client connect f =
  match
    try Ok (connect ())
    with Unix.Unix_error (e, _, arg) ->
      Error
        (`Msg
          (Printf.sprintf "client: cannot connect%s: %s"
             (if arg = "" then "" else " to " ^ arg)
             (Unix.error_message e)))
  with
  | Error _ as e -> e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Sw_host.Client.close c) (fun () -> f c)

let client_call c ~meth ~params =
  match Sw_host.Client.call c ~meth ~params () with
  | Ok body -> Ok body
  | Error e ->
      Error
        (`Msg
          (Printf.sprintf "%s failed [%s]: %s" meth e.Sw_host.Wire.err_class
             e.Sw_host.Wire.message))

(* The wire request body: the problem the local compile command takes,
   serialized through the protocol's JSON codecs. *)
let request_params spec options =
  Sw_obs.Json.Obj
    [ ("spec", Spec.to_json spec); ("options", Options.to_json options) ]

let response_string name body =
  match Sw_obs.Json.member name body with
  | Some (Sw_obs.Json.String s) -> Ok s
  | _ -> Error (`Msg (Printf.sprintf "client: response lacks %S" name))

(* Write the daemon's C back under the same names batch --emit uses, so
   the two paths are diffable file-for-file. *)
let write_remote_c ~dir body =
  let ( let* ) = Result.bind in
  let* name = response_string "name" body in
  let* mpe_c = response_string "mpe_c" body in
  let* cpe_c = response_string "cpe_c" body in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat dir name in
  let mpe = base ^ "_mpe.c" and cpe = base ^ "_cpe.c" in
  Out_channel.with_open_text mpe (fun oc -> output_string oc mpe_c);
  Out_channel.with_open_text cpe (fun oc -> output_string oc cpe_c);
  Ok (mpe, cpe)

let padded_string body =
  match Sw_obs.Json.member "padded" body with
  | Some j -> (
      match Spec.of_json j with Ok s -> Spec.to_string s | Error _ -> "?")
  | None -> "?"

let client_ping connect =
  with_client connect @@ fun c ->
  Result.map
    (fun _ -> print_string "pong\n")
    (client_call c ~meth:"ping" ~params:(Sw_obs.Json.Obj []))

let client_compile connect spec options emit =
  with_client connect @@ fun c ->
  match client_call c ~meth:"compile" ~params:(request_params spec options) with
  | Error _ as e -> e
  | Ok body -> (
      Printf.printf "compiled %s [%s] (remote)\n" (padded_string body)
        (Options.name options);
      (match Sw_obs.Json.member "spm_bytes" body with
      | Some (Sw_obs.Json.Int b) -> Printf.printf "  SPM footprint: %d bytes\n" b
      | _ -> ());
      match emit with
      | None -> Ok ()
      | Some dir ->
          Result.map
            (fun (mpe, cpe) -> Printf.printf "  wrote %s and %s\n" mpe cpe)
            (write_remote_c ~dir body))

let client_verify connect spec options =
  with_client connect @@ fun c ->
  Result.map
    (fun body ->
      Printf.printf "verify %s [%s]: PASS (remote)\n" (padded_string body)
        (Options.name options))
    (client_call c ~meth:"verify" ~params:(request_params spec options))

let client_stat connect =
  with_client connect @@ fun c ->
  Result.map
    (fun body ->
      print_string (Sw_obs.Json.to_string ~pretty:true body);
      print_newline ())
    (client_call c ~meth:"stat" ~params:(Sw_obs.Json.Obj []))

let clients_arg =
  let doc = "Concurrent client connections to drive." in
  Arg.(value & opt Common_flags.jobs_conv 8 & info [ "clients" ] ~docv:"N" ~doc)

let requests_arg =
  let doc = "Total requests, split across the clients." in
  Arg.(
    value & opt Common_flags.jobs_conv 64 & info [ "requests" ] ~docv:"N" ~doc)

let bench_out_arg =
  let doc = "Write the loadgen report (BENCH_service schema) to $(docv)." in
  Arg.(
    value
    & opt string (Filename.concat "results" "BENCH_service.json")
    & info [ "out" ] ~docv:"FILE" ~doc)

let client_loadgen connect spec options clients requests emit out =
  let params = request_params spec options in
  let r = Loadgen.run ~connect ~params ~clients ~requests () in
  let p50 = Loadgen.quantile_ms r.Loadgen.latencies 0.5 in
  let p99 = Loadgen.quantile_ms r.Loadgen.latencies 0.99 in
  let mean_ms =
    match r.Loadgen.latencies with
    | [] -> 0.0
    | l ->
        1000.0 *. List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let strings l = Sw_obs.Json.List (List.map (fun c -> Sw_obs.Json.String c) l) in
  let json =
    Sw_obs.Json.Obj
      [
        ("series", Sw_obs.Json.String "service");
        ("clients", Sw_obs.Json.Int clients);
        ("requests", Sw_obs.Json.Int requests);
        ("errors", Sw_obs.Json.Int r.Loadgen.errors);
        ("identical_c", Sw_obs.Json.Bool r.Loadgen.identical_c);
        ("wall_seconds", Sw_obs.Json.Float r.Loadgen.wall_s);
        ( "throughput_rps",
          Sw_obs.Json.Float
            (if r.Loadgen.wall_s > 0.0 then
               float_of_int requests /. r.Loadgen.wall_s
             else 0.0) );
        ( "latency_ms",
          Sw_obs.Json.Obj
            [
              ("p50", Sw_obs.Json.Float p50);
              ("p99", Sw_obs.Json.Float p99);
              ("mean", Sw_obs.Json.Float mean_ms);
            ] );
        ( "tables",
          Sw_obs.Json.Obj
            [
              ( "service",
                Sw_obs.Json.Obj
                  [
                    ("columns", strings Loadgen.columns);
                    ( "rows",
                      Sw_obs.Json.List
                        (List.map
                           (fun row -> strings (Loadgen.row_cells row))
                           r.Loadgen.rows) );
                  ] );
            ] );
      ]
  in
  (try Unix.mkdir (Filename.dirname out) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) | Sys_error _ -> ());
  Sw_obs.Json.write_file ~pretty:true ~path:out json;
  Printf.printf
    "loadgen: %d request(s) over %d client(s) in %.3f s\n\
    \  errors: %d   identical C: %b\n\
    \  latency p50 %.3f ms   p99 %.3f ms   mean %.3f ms\n\
     [wrote %s]\n"
    requests clients r.Loadgen.wall_s r.Loadgen.errors r.Loadgen.identical_c
    p50 p99 mean_ms out;
  (match (emit, r.Loadgen.first) with
  | Some dir, Some body ->
      Result.map
        (fun (mpe, cpe) -> Printf.printf "  wrote %s and %s\n" mpe cpe)
        (write_remote_c ~dir body)
  | Some _, None -> Error (`Msg "loadgen: no successful response to emit")
  | None, _ -> Ok ())
  |> function
  | Error _ as e -> e
  | Ok () ->
      if not r.Loadgen.identical_c then
        Error (`Msg "loadgen: responses returned differing C")
      else if r.Loadgen.errors > 0 then
        Error
          (`Msg (Printf.sprintf "loadgen: %d request(s) failed" r.Loadgen.errors))
      else Ok ()

let client_cmd =
  let spec_term = shape_spec_term ~missing:"give --shape M,N,K" in
  let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.term_result term) in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running swgemmd over the line-delimited JSON wire \
          protocol (v1)")
    [
      cmd "ping" ~doc:"Round-trip a liveness probe to the daemon"
        Term.(const client_ping $ connect_term);
      cmd "compile"
        ~doc:
          "Compile a shape on the daemon; $(b,--emit) writes the returned \
           MPE/CPE C under the same file names batch compile uses"
        Term.(
          const client_compile $ connect_term $ spec_term $ options_term
          $ emit_arg);
      cmd "verify"
        ~doc:
          "Compile a shape on the daemon and run its functional \
           verification remotely"
        Term.(const client_verify $ connect_term $ spec_term $ options_term);
      cmd "stat" ~doc:"Print the daemon's plan-cache and store counters as JSON"
        Term.(const client_stat $ connect_term);
      cmd "loadgen"
        ~doc:
          "Drive N concurrent clients through the domain pool against the \
           daemon, report p50/p99 latency and write the BENCH_service \
           report; fails unless every response succeeded with \
           byte-identical C"
        Term.(
          const client_loadgen $ connect_term $ spec_term $ options_term
          $ clients_arg $ requests_arg $ emit_arg $ bench_out_arg);
    ]

(* ------------------------------------------------------------------ *)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "swgemmgen" ~version:"1.0.0"
      ~doc:
        "Automatic generation of high-performance GEMM kernels for the \
         SW26010Pro"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            compile_cmd;
            verify_cmd;
            perf_cmd;
            profile_cmd;
            breakdown_cmd;
            tune_cmd;
            fuzz_cmd;
            arch_cmd;
            cache_cmd;
            debug_cmd;
            client_cmd;
          ]))
