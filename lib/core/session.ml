(* User-facing builder for Compile.session. The record itself lives in
   Compile so Compile.run can take it without a module cycle; this module
   is the one callers name. *)

type t = Compile.session = {
  config : Sw_arch.Config.t;
  options : Options.t;
  debug : bool;
  cache : Compile.t Plan_cache.t option;
  observer : (Pass.t -> Pass.state -> unit) option;
  store : Sw_host.Store.t option;
  deadline_s : float option;
  tuned : (Spec.t -> (Sw_arch.Config.t * Options.t) option) option;
}

let create ?(options = Options.all_on) ?(debug = false) ?cache
    ?(no_cache = false) ?observer ?store ?store_dir ?deadline ~arch () =
  let store =
    match (store, store_dir) with
    | Some _, Some _ ->
        invalid_arg "Session.create: give ~store or ~store_dir, not both"
    | (Some _ as st), None -> st
    | None, Some dir ->
        Some (Sw_host.Store.open_ ~schema:Compile.store_schema ~dir ())
    | None, None -> None
  in
  let cache =
    match cache with
    | Some _ as c -> c
    | None ->
        if no_cache then None else Some (Plan_cache.create ~shards:8 ())
  in
  {
    config = arch;
    options;
    debug;
    cache;
    observer;
    store;
    deadline_s = deadline;
    tuned = None;
  }

let with_options t options = { t with options }

let run = Compile.run
let warm_start = Compile.warm_start

let cache_stats t = Option.map Plan_cache.stats t.cache
let store_stats t = Option.map Sw_host.Store.stats t.store
