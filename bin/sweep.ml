(* Randomized end-to-end sweep: 250 trials (override with --trials N) over
   meshes (rows and columns drawn independently from 1..3, so rectangular
   geometries are covered), kernel shapes, problem sizes, batch sizes,
   transposes, alpha/beta, fusion patterns and optimization levels; each
   generated program is executed functionally on the simulated cluster and
   checked against the reference. --arch NAME pins every trial to one
   Config preset instead of the drawn tiny meshes (the parameter stream
   is drawn regardless, so trial specs are identical either way). Heavier
   than the unit suite; run with `dune exec bin/sweep.exe`.

   Trials are distributed over --jobs N host domains (default: the
   machine's recommended domain count). Trial parameters are drawn from the
   RNG up front in trial order and each trial's output is buffered and
   printed in trial order, so stdout and --json output are identical for
   every --jobs value; --jobs 1 runs inline with no domains.

   With --metrics, a registry is installed and every candidate is compiled
   through a shared plan cache: each trial reports its cache traffic and
   exposed reply-wait latency, and the run ends with the full snapshot.
   Under --jobs > 1 the metric *totals* stay deterministic, but which
   trial a shared-cache hit or eviction is attributed to depends on
   scheduling — --metrics diagnostics are exempt from byte-identity. *)
open Sw_core
open Sw_arch

type trial = {
  idx : int;
  config : Config.t;
  spec : Spec.t;
  options : Options.t;
}

let run trials jobs json_path arch_override metrics =
  let registry =
    if metrics then begin
      let r = Sw_obs.Metrics.create () in
      Sw_obs.Metrics.install r;
      Some r
    end
    else None
  in
  let cache =
    if metrics then Some (Plan_cache.create ~capacity:128 ~shards:8 ())
    else None
  in
  let trial_report buf before =
    match (Sw_obs.Metrics.current (), before) with
    | Some r, Some before ->
        let d =
          Sw_obs.Metrics.diff ~before ~after:(Sw_obs.Metrics.snapshot r)
        in
        let count ?labels name =
          match Sw_obs.Metrics.find d ?labels name with
          | Some (Sw_obs.Metrics.Counter n) -> n
          | _ -> 0
        in
        let waits level =
          match
            Sw_obs.Metrics.find d
              ~labels:[ ("level", level) ]
              "sim.reply_wait_seconds"
          with
          | Some (Sw_obs.Metrics.Histogram { n; sum; _ }) -> (n, sum)
          | _ -> (0, 0.0)
        in
        let dn, ds = waits "dma" and rn, rs = waits "rma" in
        Buffer.add_string buf
          (Printf.sprintf
             "    cache %d hit / %d miss; waits: dma %d (%.1f us exposed), \
              rma %d (%.1f us exposed)\n"
             (count "plan_cache.hits_total")
             (count "plan_cache.misses_total")
             dn (1e6 *. ds) rn (1e6 *. rs))
    | _ -> ()
  in
  (* Draw every trial's parameters up front, in trial order, so the
     sampled grid is independent of how trials are later scheduled. *)
  let rng = Random.State.make [| 20260705 |] in
  let plan =
    List.init trials (fun i ->
        let idx = i + 1 in
        let rows = 1 + Random.State.int rng 3 in
        let cols = 1 + Random.State.int rng 3 in
        let mk =
          (2 * (1 + Random.State.int rng 2), 2 * (1 + Random.State.int rng 2), 2)
        in
        let config =
          match arch_override with
          | Some c -> c
          | None -> Config.tiny ~mesh:rows ~cols ~mk ()
        in
        let m = 1 + Random.State.int rng 40 in
        let n = 1 + Random.State.int rng 40 in
        let k = 1 + Random.State.int rng 40 in
        let batch =
          if Random.State.bool rng then Some (1 + Random.State.int rng 3)
          else None
        in
        let alpha = Random.State.float rng 4.0 -. 2.0 in
        let beta = Random.State.float rng 4.0 -. 2.0 in
        let ta = Random.State.bool rng and tb = Random.State.bool rng in
        let fusion =
          match Random.State.int rng 4 with
          | 0 -> Spec.Prologue "quant"
          | 1 -> Spec.Epilogue "relu"
          | 2 -> Spec.Epilogue "tanh"
          | _ -> Spec.No_fusion
        in
        let options =
          List.nth (List.map snd Options.breakdown) (Random.State.int rng 4)
        in
        let spec = Spec.make ?batch ~alpha ~beta ~ta ~tb ~fusion ~m ~n ~k () in
        { idx; config; spec; options })
  in
  let run_trial (t : trial) =
    let buf = Buffer.create 128 in
    let before = Option.map Sw_obs.Metrics.snapshot (Sw_obs.Metrics.current ()) in
    if metrics then
      Buffer.add_string buf
        (Printf.sprintf "trial %3d %s [%s]\n" t.idx (Spec.to_string t.spec)
           (Options.name t.options));
    let session =
      Session.create ~options:t.options ?cache ~no_cache:true ~arch:t.config ()
    in
    let failed =
      match Compile.run session t.spec with
      | Error e ->
          Buffer.add_string buf
            (Printf.sprintf "EXN trial %d %s: %s\n" t.idx
               (Spec.to_string t.spec) (Error.to_string e));
          true
      | Ok compiled -> (
          match Runner.verify ~seed:t.idx compiled with
          | Ok () ->
              trial_report buf before;
              false
          | Error e ->
              trial_report buf before;
              Buffer.add_string buf
                (Printf.sprintf "FAIL trial %d mesh=%dx%d %s [%s]: %s\n"
                   t.idx t.config.Config.mesh_rows t.config.Config.mesh_cols
                   (Spec.to_string t.spec)
                   (Options.name t.options)
                   (Runner.error_to_string e));
              true
          | exception e ->
              Buffer.add_string buf
                (Printf.sprintf "EXN trial %d %s: %s\n" t.idx
                   (Spec.to_string t.spec) (Printexc.to_string e));
              true)
    in
    (Buffer.contents buf, failed)
  in
  let outcomes =
    Sw_host.Pool.with_pool ~jobs (fun pool ->
        Sw_host.Pool.map pool run_trial plan)
  in
  List.iter (fun (out, _) -> print_string out) outcomes;
  let failures =
    List.fold_left (fun acc (_, failed) -> if failed then acc + 1 else acc)
      0 outcomes
  in
  (match (registry, cache) with
  | Some r, Some c ->
      let st = Plan_cache.stats c in
      Printf.printf
        "plan cache: %d hits, %d misses, %d evictions, %d entries\n"
        st.Plan_cache.hits st.Plan_cache.misses st.Plan_cache.evictions
        st.Plan_cache.entries;
      print_string "--- metrics ---\n";
      print_string (Sw_obs.Metrics.to_text (Sw_obs.Metrics.snapshot r))
  | _ -> ());
  Printf.printf "sweep: %d trials, %d failures\n" trials failures;
  (match json_path with
  | Some path ->
      let j =
        Sw_obs.Json.Obj
          [
            ("trials", Sw_obs.Json.Int trials);
            ("failures", Sw_obs.Json.Int failures);
            ( "results",
              Sw_obs.Json.List
                (List.map2
                   (fun (t : trial) (_, failed) ->
                     Sw_obs.Json.Obj
                       [
                         ("trial", Sw_obs.Json.Int t.idx);
                         ("spec", Sw_obs.Json.String (Spec.to_string t.spec));
                         ( "options",
                           Sw_obs.Json.String (Options.name t.options) );
                         ( "mesh",
                           Sw_obs.Json.String
                             (Printf.sprintf "%dx%d"
                                t.config.Config.mesh_rows
                                t.config.Config.mesh_cols) );
                         ("ok", Sw_obs.Json.Bool (not failed));
                       ])
                   plan outcomes) );
          ]
      in
      Sw_obs.Json.write_file ~pretty:true ~path j
  | None -> ());
  if failures = 0 then 0 else 1

(* Flags are checked before any trial runs: an unknown flag, a missing
   value or a bad count is a usage error. *)
let () =
  let open Cmdliner in
  let trials_arg =
    let positive =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "'%s' is not an integer >= 1" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    let doc = "Number of randomized trials." in
    Arg.(value & opt positive 250 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Also write every trial's outcome as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  (* --arch pins every trial to one preset; without it each trial draws
     its own tiny mesh *)
  let arch_term =
    let resolve = function
      | None -> Ok None
      | Some _ as arch ->
          Result.map Option.some
            (Sw_cli.Common_flags.resolve_config ~tiny:false ~arch
               ~arch_file:None)
    in
    Term.(term_result (const resolve $ Sw_cli.Common_flags.arch_arg))
  in
  let metrics_arg =
    let doc =
      "Install a metrics registry and compile through one shared plan \
       cache: each trial reports its cache traffic and exposed reply-wait \
       latency, and the run ends with the cache statistics and the full \
       snapshot."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let cmd =
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Randomized end-to-end sweep: generate, simulate functionally \
            and check every trial against the reference")
      Term.(
        const run $ trials_arg $ Sw_cli.Common_flags.jobs_arg $ json_arg
        $ arch_term $ metrics_arg)
  in
  exit (Cmd.eval' cmd)
