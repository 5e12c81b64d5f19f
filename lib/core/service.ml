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
    ((("name", Json.String compiled.program.Sw_ast.Ast.prog_name)
     :: Report.plan_fields compiled)
    @ [
        ("mpe_c", Json.String (Cemit.mpe_file compiled));
        ("cpe_c", Json.String (Cemit.cpe_file compiled));
      ])

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
          match Json.member "options" params with
          | None -> Session.run t.session spec
          | Some o -> (
              match Options.of_json o with
              | Ok opts ->
                  Session.run (Session.with_options t.session opts) spec
              | Result.Error e -> invalid "compile: %s" e)))

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
      | Result.Error e -> Result.Error (Runner.to_error e))

(* Expose the simulator's performance model over the wire so remote
   clients can rank configurations without a local toolchain. *)
let profile_request t params =
  Result.bind (compile_request t params) Report.measure
  |> Result.map Report.to_json

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

let handler t ~client ~meth ~params = handle ~client ~meth ~params t
