type t = {
  original : Spec.t;
  spec : Spec.t;
  options : Options.t;
  config : Sw_arch.Config.t;
  tiles : Tile_model.t;
  tree : Sw_tree.Tree.t;
  program : Sw_ast.Ast.program;
  pass_stats : Pass.stat list;
}

type session = {
  config : Sw_arch.Config.t;
  options : Options.t;
  debug : bool;
  cache : t Plan_cache.t option;
  observer : (Pass.t -> Pass.state -> unit) option;
  store : Sw_host.Store.t option;
  deadline_s : float option;
  tuned : (Spec.t -> (Sw_arch.Config.t * Options.t) option) option;
}

(* Internal control flow of one compilation; surfaces as a typed
   Sw_arch.Error.t value from run (never crosses a domain
   boundary as an exception). *)
exception Fail of Sw_arch.Error.t

let fail fmt =
  Printf.ksprintf (fun s -> raise (Fail (Sw_arch.Error.Invalid s))) fmt

let flops t = Spec.flops t.spec

(* ------------------------------------------------------------------ *)
(* Durable plans                                                        *)
(* ------------------------------------------------------------------ *)

(* The store's schema generation: bumping [plan_schema] (or switching
   OCaml versions — Marshal images are not portable across builds) makes
   every existing entry stale, so a marshalled plan from another build is
   deleted on sight, never decoded. *)
let plan_schema = "swgemm-plan-v2"
let store_schema = plan_schema ^ "/" ^ Sys.ocaml_version

(* Compile.t is closure-free plain data end to end (specs, options,
   config, tile model, schedule tree, AST, pass stats), so a plain
   Marshal image round-trips exactly. *)
let encode_plan (plan : t) = Marshal.to_string plan []

let decode_plan payload =
  (* the store already checksummed the payload against its header and
     checked the schema generation; a failing unmarshal here means a
     schema collision we did not anticipate — treat as a miss, recompile,
     and let the put overwrite the entry *)
  try Some (Marshal.from_string payload 0 : t) with _ -> None

let run_result (session : session) original =
  let { config; options; debug; cache; observer; store; _ } = session in
  (* Tuned-plan resolution happens before the cache key is formed: the
     key covers (spec, options, config), so a tuned and an untuned
     compilation of the same spec can never alias each other's plans. *)
  let config, options =
    match session.tuned with
    | None -> (config, options)
    | Some lookup ->
        Option.value (lookup original) ~default:(config, options)
  in
  (* Cooperative deadline checkpoints against a clock started here.
     Expiry surfaces as the typed Timeout error through the normal Fail
     path. *)
  let checkpoint =
    match session.deadline_s with
    | None -> fun _ -> ()
    | Some d ->
        let start = Unix.gettimeofday () in
        fun stage ->
          let e = Unix.gettimeofday () -. start in
          if e > d then
            raise
              (Fail
                 (Sw_arch.Error.Timeout { stage; elapsed_s = e; deadline_s = d }))
  in
  let observer =
    (* a deadline check after every executed pass: the pipeline is the
       long haul, so a stalled pass is caught at the next pass boundary *)
    match session.deadline_s with
    | None -> observer
    | Some _ ->
        Some
          (fun p st ->
            checkpoint ("pass:" ^ p.Pass.name);
            match observer with Some f -> f p st | None -> ())
  in
  try
    Sw_obs.Span.ambient ~cat:"compile"
      ~args:
        [
          ("m", Sw_obs.Span.I original.Spec.m);
          ("n", Sw_obs.Span.I original.Spec.n);
          ("k", Sw_obs.Span.I original.Spec.k);
        ]
      "compile"
    @@ fun () ->
    checkpoint "validate";
    (match Options.validate options with Ok () -> () | Error e -> fail "%s" e);
    (match Sw_arch.Config.validate config with
    | Ok () -> ()
    | Error e ->
        fail "invalid machine model: %s" (Sw_arch.Config.error_to_string e));
    let cold () =
      let spec = Spec.pad_for original config in
      let tiles = Tile_model.choose spec config in
      let needed =
        Tile_model.spm_bytes_needed tiles ~options ~fusion:spec.Spec.fusion
      in
      if needed > config.Sw_arch.Config.spm_bytes then
        raise
          (Fail
             (Sw_arch.Error.Overflow
                {
                  buffer = "decomposition";
                  needed;
                  available = config.Sw_arch.Config.spm_bytes;
                  capacity = config.Sw_arch.Config.spm_bytes;
                }));
      let state = Pass.init ~spec ~options ~config ~tiles in
      let validate = if debug then Some Pass_common.check_invariants else None in
      let state, pass_stats =
        match
          Pass.run_pipeline ?validate ?observer Pass_registry.pipeline state
        with
        | Ok r -> r
        | Error e -> fail "%s" e
      in
      let tree =
        match state.Pass.tree with
        | Some t -> t
        | None -> fail "internal: pipeline produced no schedule tree"
      in
      (match Sw_tree.Tree.validate tree with
      | Ok () -> ()
      | Error e -> fail "internal: invalid schedule tree: %s" e);
      let body =
        match state.Pass.body with
        | Some b -> b
        | None -> fail "internal: pipeline produced no AST"
      in
      let ident_of s =
        String.map
          (fun c ->
            if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
            then c
            else '_')
          s
      in
      let program =
        {
          Sw_ast.Ast.prog_name =
            Printf.sprintf "swgemm_%s" (ident_of (Options.name options));
          params =
            [ ("M", spec.Spec.m); ("N", spec.Spec.n); ("K", spec.Spec.k) ]
            @ (match spec.Spec.batch with Some b -> [ ("B", b) ] | None -> []);
          arrays = Pass_common.arrays spec;
          spm_decls = Pass_common.spm_decls spec options tiles;
          replies = Pass_common.replies options;
          body;
        }
      in
      { original; spec; options; config; tiles; tree; program; pass_stats }
    in
    let key = Plan_cache.key ~spec:original ~options ~config in
    (* Lookup order: in-memory cache, then the durable store, then a cold
       compilation whose plan is written back to the store. A store I/O
       failure degrades the request to memory-only — the plan is still
       produced and returned — but an injected Crash.Crashed propagates:
       the chaos tests rely on it to simulate abrupt death mid-write. *)
    let produce () =
      match store with
      | None -> cold ()
      | Some st -> (
          checkpoint "store.get";
          match Option.bind (Sw_host.Store.get st ~key) decode_plan with
          | Some plan -> plan
          | None ->
              let plan = cold () in
              checkpoint "store.put";
              (try Sw_host.Store.put st ~key (encode_plan plan) with
              | Sys_error _ | Unix.Unix_error _ -> ());
              plan)
    in
    Ok
      (match cache with
      | None -> produce ()
      | Some cache -> Plan_cache.find_or_add cache ~key produce)
  with Fail e -> Error e

let run (session : session) original =
  let r = run_result session original in
  (* One flight dump per escaped typed error, at the outermost layer. *)
  (match r with
  | Ok _ ->
      Sw_obs.Log.debug ~scope:"compile" "ok"
        [ ("spec", Sw_obs.Log.S (Spec.to_string original)) ]
  | Error e ->
      let class_ = Sw_arch.Error.class_of e in
      Sw_obs.Log.error ~scope:"compile" "failed"
        [
          ("class", Sw_obs.Log.S class_);
          ("spec", Sw_obs.Log.S (Spec.to_string original));
          ("error", Sw_obs.Log.S (Sw_arch.Error.to_string e));
        ];
      if Sw_obs.Flight.enabled () then
        ignore (Sw_obs.Flight.trigger ~reason:("error." ^ class_)));
  r

let warm_start (session : session) =
  match (session.store, session.cache) with
  | Some store, Some cache ->
      Sw_host.Store.fold store ~init:0 ~f:(fun n ~key ~payload ->
          match decode_plan payload with
          | Some plan -> if Plan_cache.add cache ~key plan then n + 1 else n
          | None -> n)
  | _ -> 0

let run_exn session spec =
  match run session spec with
  | Ok t -> t
  | Error e -> raise (Sw_arch.Error.Sim_error e)

let generation_seconds f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
