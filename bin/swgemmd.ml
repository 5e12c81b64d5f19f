(* swgemmd: the GEMM generator as a long-lived service.

   One shared Session (sharded plan cache -> durable store -> cold
   pipeline) serves compile/verify/stat requests over line-delimited
   JSON (protocol v1, Sw_host.Wire) on a Unix socket and/or TCP.
   Per-client token buckets shape each peer; a Supervise gate provides
   global admission control (bounded in-flight slots and wait queue);
   SIGTERM drains gracefully — in-flight requests finish,
   then every listener and connection is closed before exit. *)

open Cmdliner
open Sw_cli

let socket_arg =
  let doc = "Serve the wire protocol on a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Serve the wire protocol on TCP port $(docv) (0 picks a free port)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Address to bind the TCP listener on." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let rate_arg =
  let doc =
    "Per-client sustained request rate (requests/second, token-bucket \
     shaped); 0 disables rate limiting."
  in
  Arg.(value & opt float 100.0 & info [ "rate-limit" ] ~docv:"RPS" ~doc)

let burst_arg =
  let doc = "Per-client burst allowance (token-bucket capacity)." in
  Arg.(value & opt int 200 & info [ "burst" ] ~docv:"N" ~doc)

let tune_db_arg =
  let doc =
    "Serve tuned plans from the tuning database rooted at $(docv): \
     requests whose shape class has a recorded winner compile under the \
     tuned decomposition, and the $(b,tune) wire method becomes \
     available (search on miss, recorded winner on hit)."
  in
  Arg.(value & opt (some string) None & info [ "tune-db" ] ~docv:"DIR" ~doc)

(* The [tune] wire method: params.spec like compile, optional
   params.budget / params.jobs; answers the search summary. Mounted only
   when --tune-db names a database to record winners in. *)
let tune_extension ~db ~jobs ~(session : Sw_core.Session.t) params =
  let module Json = Sw_obs.Json in
  match Json.member "spec" params with
  | None -> Error (Sw_arch.Error.Invalid "tune: params lack \"spec\"")
  | Some spec_json -> (
      match Sw_core.Spec.of_json spec_json with
      | Error e -> Error (Sw_arch.Error.Invalid ("tune: " ^ e))
      | Ok spec -> (
          let budget =
            Option.bind (Json.member "budget" params) Json.to_int_opt
          in
          let jobs =
            Option.value
              (Option.bind (Json.member "jobs" params) Json.to_int_opt)
              ~default:jobs
          in
          match
            Sw_tune.Search.run ?budget ~jobs ~db
              ~config:session.Sw_core.Session.config spec
          with
          | Error e -> Error (Sw_arch.Error.Invalid ("tune: " ^ e))
          | Ok o ->
              let m, n, k = o.Sw_tune.Search.winner.Sw_tune.Space.mk in
              Ok
                (Json.Obj
                   [
                     ( "winner",
                       Json.Obj
                         [
                           ("mk_m", Json.Int m);
                           ("mk_n", Json.Int n);
                           ("mk_k", Json.Int k);
                           ( "strip",
                             Json.Int o.Sw_tune.Search.winner.Sw_tune.Space.strip
                           );
                           ( "buffers",
                             Json.Int
                               o.Sw_tune.Search.winner.Sw_tune.Space.buffers );
                           ( "fuse",
                             Json.Bool o.Sw_tune.Search.winner.Sw_tune.Space.fuse
                           );
                         ] );
                     ("gflops", Json.Float o.Sw_tune.Search.gflops);
                     ( "default_gflops",
                       Json.Float o.Sw_tune.Search.default_gflops );
                     ("measurements", Json.Int o.Sw_tune.Search.measurements);
                     ("from_db", Json.Bool o.Sw_tune.Search.from_db);
                   ])))

let run common socket tcp host rate burst tune_db_dir =
  match (socket, tcp) with
  | None, None ->
      Error (`Msg "bind at least one endpoint: --socket PATH and/or --tcp PORT")
  | _ -> (
      Common_flags.with_logging ?level:common.Common_flags.log_level
        ?file:common.Common_flags.log_file
      @@ fun () ->
      match Common_flags.session common with
      | Error _ as e -> e
      | Ok session ->
          (* The daemon always owns a metrics registry: request counters
             and the latency histogram cost nothing when nobody asks, and
             --metrics prints the snapshot at drain. All connection
             threads share this domain, so the ambient install covers
             them. *)
          let registry = Sw_obs.Metrics.create () in
          Sw_obs.Metrics.install registry;
          Fun.protect ~finally:Sw_obs.Metrics.uninstall @@ fun () ->
          (match common.Common_flags.store_dir with
          | Some dir ->
              let n = Sw_core.Session.warm_start session in
              if n > 0 then
                Printf.printf "swgemmd: warm start: %d plan(s) from %s\n" n dir
          | None -> ());
          let supervisor = Sw_host.Supervise.create () in
          let ratelimit =
            if rate > 0.0 then
              Some (Sw_host.Ratelimit.create ~rate_per_s:rate ~burst ())
            else None
          in
          let tune_db =
            Option.map
              (fun dir -> Sw_tune.Tune_db.open_ ~dir ())
              tune_db_dir
          in
          let session =
            match tune_db with
            | None -> session
            | Some db ->
                {
                  session with
                  Sw_core.Session.tuned =
                    Some
                      (Sw_tune.Search.session_hook ~db
                         ~config:session.Sw_core.Session.config);
                }
          in
          let extensions =
            match tune_db with
            | None -> []
            | Some db ->
                [
                  ( "tune",
                    tune_extension ~db ~jobs:common.Common_flags.jobs ~session
                  );
                ]
          in
          let service = Sw_core.Service.create ~extensions ~session () in
          let server =
            Sw_host.Server.create ?ratelimit ~supervisor
              ~handler:(Sw_core.Service.handler service)
              ()
          in
          Option.iter
            (fun path ->
              Sw_host.Server.listen_unix server ~path;
              Printf.printf "swgemmd: listening on unix:%s\n" path)
            socket;
          Option.iter
            (fun port ->
              let port = Sw_host.Server.listen_tcp server ~host ~port () in
              Printf.printf "swgemmd: listening on tcp:%s:%d\n" host port)
            tcp;
          print_string "swgemmd: ready\n";
          flush stdout;
          (* Drain only flips an atomic flag — safe inside the handler.
             SIGPIPE becomes EPIPE so a vanished client cannot kill the
             daemon. *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let drain _ = Sw_host.Server.drain server in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
          Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
          Sw_host.Server.serve server;
          let s = Sw_host.Server.stats server in
          Printf.printf
            "swgemmd: drained: %d request(s) served (%d errored, %d shed), %d \
             connection(s)\n"
            s.Sw_host.Server.served s.Sw_host.Server.errored
            s.Sw_host.Server.shed s.Sw_host.Server.connections;
          if common.Common_flags.metrics then begin
            print_string "--- metrics ---\n";
            print_string
              (Sw_obs.Metrics.to_text (Sw_obs.Metrics.snapshot registry))
          end;
          Ok ())

let cmd =
  let doc = "GEMM kernel generation as a service (wire protocol v1)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves compile/verify/stat requests over line-delimited JSON \
         frames $(b,{v:1, id, method, params}) answered by $(b,{v:1, id, \
         ok}) or $(b,{v:1, id, error:{class, message}}). All requests \
         share one session: a sharded plan cache in front of the durable \
         store ($(b,--store)) in front of the cold pipeline.";
      `P
        "SIGTERM drains gracefully: accepting stops, in-flight requests \
         complete, then the process exits. Talk to it with $(b,swgemmgen \
         client) or any line-oriented tool, e.g. socat: echo \
         '{\"v\":1,\"id\":\"1\",\"method\":\"ping\"}' | socat - \
         UNIX-CONNECT:/tmp/swgemmd.sock";
    ]
  in
  Cmd.v
    (Cmd.info "swgemmd" ~version:"%%VERSION%%" ~doc ~man)
    Term.(
      term_result
        (const run $ Common_flags.term $ socket_arg $ tcp_arg $ host_arg
       $ rate_arg $ burst_arg $ tune_db_arg))

let () = exit (Cmd.eval cmd)
