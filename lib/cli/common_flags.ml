open Cmdliner

(* ------------------------------------------------------------------ *)
(* Individual flags                                                     *)
(* ------------------------------------------------------------------ *)

let tiny_arg =
  let doc =
    "Use the scaled-down test configuration (2x2 mesh) instead of \
     SW26010Pro."
  in
  Arg.(value & flag & info [ "tiny" ] ~doc)

let arch_arg =
  let doc =
    "Architecture preset to generate for (see $(b,swgemmgen arch list)). \
     Overrides $(b,--tiny)."
  in
  Arg.(value & opt (some string) None & info [ "arch" ] ~docv:"NAME" ~doc)

let arch_file_arg =
  let doc =
    "Load the architecture description from a JSON file (the schema \
     $(b,swgemmgen arch show NAME --json) prints). Overrides $(b,--arch) \
     and $(b,--tiny)."
  in
  Arg.(value & opt (some file) None & info [ "arch-file" ] ~docv:"FILE" ~doc)

let store_arg =
  let doc =
    "Durable plan store directory (created if missing). Compiled plans \
     are persisted there — keyed by spec, options and machine model — \
     and reused across runs; corrupt entries are quarantined and \
     recompiled, never served. Inspect with $(b,swgemmgen cache)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let deadline_arg =
  let pos_float =
    let parse s =
      match float_of_string_opt s with
      | Some d when d > 0.0 && Float.is_finite d -> Ok d
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "--deadline: '%s' is not a positive number of seconds" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let doc =
    "Per-request deadline in seconds, enforced cooperatively at pass \
     boundaries and store operations; an expired request fails with a \
     typed timeout error."
  in
  Arg.(
    value & opt (some pos_float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

(* A domain count is validated at parse time: a non-numeric or
   non-positive --jobs is a usage error, not something to discover after
   the work starts. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error
          (`Msg
            (Printf.sprintf
               "--jobs: %d is not a valid domain count (need an integer >= 1)"
               n))
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "--jobs: '%s' is not an integer (need an integer >= 1)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Host domains used for fan-outs such as the fault-seed matrix (default: \
     the machine's recommended domain count). Results are deterministic: \
     $(b,--jobs 1) runs inline and any other value produces byte-identical \
     output."
  in
  Arg.(
    value
    & opt jobs_conv (Sw_host.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc = "Do not consult the compilation plan cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let metrics_arg =
  let doc =
    "Install a metrics registry for the run and print its snapshot \
     afterwards (pass runs, cache traffic, simulator wait latencies, fault \
     injections). Without this flag no registry exists and the \
     instrumentation sites are inert; output is unchanged."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let log_level_conv =
  let parse s =
    match Sw_obs.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "--log-level: '%s' is not one of debug, info, warn, error" s))
  in
  Arg.conv
    ( parse,
      fun fmt l -> Format.pp_print_string fmt (Sw_obs.Log.level_to_string l) )

let log_level_arg =
  let doc =
    "Enable the structured JSON-lines event log at this level (debug, \
     info, warn, error). Events stream to stderr unless $(b,--log-file) is \
     given. A flight recorder is installed alongside: the last events, \
     spans and metric deltas are dumped to results/flightrec-*.json \
     whenever a request fails, a store entry is quarantined or a crash \
     site fires."
  in
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_file_arg =
  let doc =
    "Append JSON-lines log events to $(docv) instead of stderr (implies \
     $(b,--log-level) info when none is given)."
  in
  Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* The combined term                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  tiny : bool;
  arch : string option;
  arch_file : string option;
  store_dir : string option;
  deadline : float option;
  jobs : int;
  no_cache : bool;
  metrics : bool;
  log_level : Sw_obs.Log.level option;
  log_file : string option;
}

let term =
  let pack tiny arch arch_file store_dir deadline jobs no_cache metrics
      log_level log_file =
    {
      tiny;
      arch;
      arch_file;
      store_dir;
      deadline;
      jobs;
      no_cache;
      metrics;
      log_level;
      log_file;
    }
  in
  Term.(
    const pack $ tiny_arg $ arch_arg $ arch_file_arg $ store_arg $ deadline_arg
    $ jobs_arg $ no_cache_arg $ metrics_arg $ log_level_arg $ log_file_arg)

(* ------------------------------------------------------------------ *)
(* Resolution helpers                                                   *)
(* ------------------------------------------------------------------ *)

let resolve_config ~tiny ~arch ~arch_file =
  match arch_file with
  | Some path ->
      Result.map_error
        (fun e -> `Msg ("--arch-file: " ^ e))
        (Sw_arch.Config.load_file path)
  | None -> (
      match arch with
      | Some name -> (
          match Sw_arch.Config.find name with
          | Some c -> Ok c
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "--arch: unknown preset '%s' (known: %s)"
                     name
                     (String.concat ", " (Sw_arch.Config.names ())))))
      | None ->
          Ok
            (if tiny then Sw_arch.Config.tiny ()
             else Sw_arch.Config.sw26010pro))

let open_store dir =
  match
    Sw_host.Store.open_ ~schema:Sw_core.Compile.store_schema ~dir ()
  with
  | st -> Ok st
  | exception Sys_error e ->
      Error (`Msg (Printf.sprintf "--store: cannot open %s: %s" dir e))
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (`Msg
          (Printf.sprintf "--store: cannot open %s: %s" dir
             (Unix.error_message err)))

let config t =
  resolve_config ~tiny:t.tiny ~arch:t.arch ~arch_file:t.arch_file

let session t =
  match config t with
  | Error _ as e -> e
  | Ok arch -> (
      let store =
        match t.store_dir with
        | None -> Ok None
        | Some dir -> Result.map Option.some (open_store dir)
      in
      match store with
      | Error _ as e -> e
      | Ok store ->
          Ok
            (Sw_core.Session.create ~no_cache:t.no_cache ?store
               ?deadline:t.deadline ~arch ()))

let with_logging ?level ?file f =
  match (level, file) with
  | None, None -> f ()
  | _ ->
      let level = Option.value level ~default:Sw_obs.Log.Info in
      let oc, close =
        match file with
        | None -> (stderr, fun () -> ())
        | Some path ->
            let oc = open_out_gen [ Open_creat; Open_append ] 0o644 path in
            (oc, fun () -> close_out oc)
      in
      Sw_obs.Log.install (Sw_obs.Log.create ~min_level:level ~out:oc ());
      Sw_obs.Flight.install (Sw_obs.Flight.create ());
      Fun.protect
        ~finally:(fun () ->
          Sw_obs.Flight.uninstall ();
          Sw_obs.Log.uninstall ();
          close ())
        f

(* The plain-text help rendering of the shared flag set, for the golden
   CLI test: any rewording of a shared flag's documentation shows up as
   an explicit diff. The one machine-dependent piece — the --jobs
   default, the host's domain count — is normalized to <jobs>. *)
let normalize_jobs_default s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    if
      !i + 7 < n
      && String.sub s !i 7 = "absent="
      && is_digit s.[!i + 7]
    then begin
      Buffer.add_string b "absent=<jobs>";
      i := !i + 7;
      while !i < n && is_digit s.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let help_plain () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let cmd =
    Cmd.v
      (Cmd.info "swgemm-common-flags"
         ~doc:
           "The session flags shared verbatim by swgemmgen and swgemmd \
            (defined once in Sw_cli.Common_flags)")
      Term.(const (fun _ -> ()) $ term)
  in
  ignore
    (Cmd.eval ~help:fmt ~err:fmt
       ~argv:[| "swgemm-common-flags"; "--help=plain" |]
       cmd
      : int);
  Format.pp_print_flush fmt ();
  normalize_jobs_default (Buffer.contents buf)

let with_metrics enabled f =
  if not enabled then f ()
  else begin
    let registry = Sw_obs.Metrics.create () in
    Sw_obs.Metrics.install registry;
    Fun.protect
      ~finally:(fun () -> Sw_obs.Metrics.uninstall ())
      (fun () ->
        let r = f () in
        print_string "--- metrics ---\n";
        print_string (Sw_obs.Metrics.to_text (Sw_obs.Metrics.snapshot registry));
        r)
  end
