module Json = Sw_obs.Json
module Error = Sw_arch.Error

type extension =
  Sw_obs.Json.t -> (Sw_obs.Json.t, Sw_arch.Error.t) result

type t = { session : Session.t; extensions : (string * extension) list }

let builtin_methods = [ "ping"; "compile"; "verify"; "profile"; "stat" ]

let create ?(extensions = []) ~session () =
  List.iter
    (fun (name, _) ->
      if List.mem name builtin_methods then
        invalid_arg
          (Printf.sprintf "Service.create: extension %S shadows a builtin"
             name))
    extensions;
  { session; extensions }

let invalid fmt = Printf.ksprintf (fun s -> Result.Error (Error.Invalid s)) fmt

let compile_result_json (compiled : Compile.t) =
  Json.Obj
    [
      ("name", Json.String compiled.Compile.program.Sw_ast.Ast.prog_name);
      ("spec", Spec.to_json compiled.Compile.original);
      ("padded", Spec.to_json compiled.Compile.spec);
      ("options", Options.to_json compiled.Compile.options);
      ("spm_bytes", Json.Int (Sw_ast.Ast.spm_bytes compiled.Compile.program));
      ("mpe_c", Json.String (Cemit.mpe_file compiled));
      ("cpe_c", Json.String (Cemit.cpe_file compiled));
    ]

(* Decode params.spec / params.options and compile through the shared
   session (an options override derives a sibling session; the cache is
   shared, and keys include the options, so this is safe). *)
let compile_request t params =
  match Json.member "spec" params with
  | None -> invalid "compile: params lack \"spec\""
  | Some spec_json -> (
      match Spec.of_json spec_json with
      | Result.Error e -> invalid "compile: %s" e
      | Ok spec -> (
          let session =
            match Json.member "options" params with
            | None -> Ok t.session
            | Some o -> (
                match Options.of_json o with
                | Ok opts -> Ok (Session.with_options t.session opts)
                | Result.Error e ->
                    Result.Error (Error.Invalid ("compile: " ^ e)))
          in
          match session with
          | Result.Error _ as e -> e
          | Ok session -> (
              match Session.run session spec with
              | Ok compiled -> Ok compiled
              | Result.Error _ as e -> e)))

let verify_request t params =
  match compile_request t params with
  | Result.Error _ as e -> e
  | Ok compiled -> (
      let seed =
        Option.bind (Json.member "seed" params) Json.to_int_opt
      in
      match Runner.verify ?seed compiled with
      | Ok () ->
          Ok
            (Json.Obj
               [
                 ("verified", Json.Bool true);
                 ("spec", Spec.to_json compiled.Compile.original);
                 ("padded", Spec.to_json compiled.Compile.spec);
               ])
      | Result.Error (Runner.Sim e) -> Result.Error e
      | Result.Error (Runner.Mismatch _ as e) ->
          Result.Error (Error.Invalid (Runner.error_to_string e)))

(* Expose the simulator's performance model over the wire so remote
   clients can rank configurations without a local toolchain. *)
let profile_request t params =
  match compile_request t params with
  | Result.Error _ as e -> e
  | Ok compiled ->
      let perf = Runner.measure compiled in
      Ok
        (Json.Obj
           [
             ("gflops", Json.Float perf.Runner.gflops);
             ("seconds", Json.Float perf.Runner.seconds);
             ("exact", Json.Bool perf.Runner.exact);
             ("spec", Spec.to_json compiled.Compile.original);
             ("padded", Spec.to_json compiled.Compile.spec);
             ("options", Options.to_json compiled.Compile.options);
             ( "spm_bytes",
               Json.Int (Sw_ast.Ast.spm_bytes compiled.Compile.program) );
           ])

let stat_request t =
  let cache =
    match Session.cache_stats t.session with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("hits", Json.Int s.Plan_cache.hits);
            ("misses", Json.Int s.Plan_cache.misses);
            ("evictions", Json.Int s.Plan_cache.evictions);
            ("entries", Json.Int s.Plan_cache.entries);
          ]
  in
  let store =
    match Session.store_stats t.session with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("entries", Json.Int s.Sw_host.Store.entries);
            ("bytes", Json.Int s.Sw_host.Store.bytes);
            ("hits", Json.Int s.Sw_host.Store.hits);
            ("misses", Json.Int s.Sw_host.Store.misses);
            ("puts", Json.Int s.Sw_host.Store.puts);
            ("quarantined", Json.Int s.Sw_host.Store.quarantined);
            ("served_corrupt", Json.Int s.Sw_host.Store.served_corrupt);
          ]
  in
  Ok (Json.Obj [ ("cache", cache); ("store", store) ])

let handle ~client:_ ~meth ~params t =
  try
    match meth with
    | "ping" -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
    | "compile" -> Result.map compile_result_json (compile_request t params)
    | "verify" -> verify_request t params
    | "profile" -> profile_request t params
    | "stat" -> stat_request t
    | _ -> (
        match List.assoc_opt meth t.extensions with
        | Some ext -> ext params
        | None ->
            invalid "unknown method %S (protocol v1: %s)" meth
              (String.concat "|" (builtin_methods @ List.map fst t.extensions)))
  with
  | Error.Sim_error e -> Result.Error e
  | Runner.Runner_error (Runner.Sim e) -> Result.Error e
  | Runner.Runner_error e -> Result.Error (Error.Invalid (Runner.error_to_string e))

let handler t ~client ~meth ~params = handle ~client ~meth ~params t
