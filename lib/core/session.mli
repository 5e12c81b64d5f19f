(** Compilation sessions: the unit of state shared across host domains.

    A session bundles everything one generator instance needs — the
    machine model, the enabled optimizations, the plan cache, the durable
    store, debug mode, the pass observer, the request deadline and the
    tuning-DB lookup — so the CLI, the daemon ([swgemmd]), the fuzzer
    and bench harnesses, the runner and the multi-cluster simulator all
    compile through one value instead of a forest of optional arguments.

    {b Lifecycle contract.} {!create} is the single constructor: it
    resolves the cache (a fresh sharded {!Plan_cache} unless [~no_cache]
    or an explicit [~cache] is given) and opens the durable store when
    [~store_dir] is given, and performs no other side effects — no
    ambient installs, no threads, no signal handlers. A session needs no
    explicit shutdown: the store persists its manifest after every write,
    so dropping the last reference (or dying at any instant) never loses
    committed plans. Requests run through {!run}; a long-lived service
    creates {e one} session at startup and shares it with every worker
    for its whole life.

    {b Sharing contract.} [t] is an immutable record whose mutable
    components are individually domain-safe: the {!Plan_cache} is sharded
    and mutex-protected, and the {!Sw_host.Store} takes one internal
    mutex. One session value is therefore shared as-is by every worker —
    clone/shard semantics live here and nowhere else. Derive variants
    ({!with_options}) rather than mutating; derived sessions share the
    parent's cache, which is correct because cache keys include the spec,
    options and config. *)

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

val create :
  ?options:Options.t ->
  ?debug:bool ->
  ?cache:Compile.t Plan_cache.t ->
  ?no_cache:bool ->
  ?observer:(Pass.t -> Pass.state -> unit) ->
  ?store:Sw_host.Store.t ->
  ?store_dir:string ->
  ?deadline:float ->
  arch:Sw_arch.Config.t ->
  unit ->
  t
(** The one builder every binary uses ([swgemmgen], [swgemmd], [bench],
    the examples and tests).

    Cache resolution, most explicit first: an explicit [~cache] (a cache
    shared with other sessions) is used as-is; [~no_cache:true] disables
    the in-memory cache (every request pays the store read or the cold
    pipeline — one-shot compilations, cache-behavior experiments);
    otherwise a fresh cache of 64 plans over 8 shards is created.

    Store resolution: [~store] adopts an already-open store;
    [~store_dir] opens (creating directories as needed) the durable plan
    store rooted there under {!Compile.store_schema}, with no eviction
    budget — what [--store DIR] builds. Giving both
    raises [Invalid_argument]. Call {!warm_start} to preload the
    in-memory cache from it.

    [deadline] is the per-request cooperative deadline in seconds.

    The session starts without a tuning-DB lookup; install one by record
    update ([{ s with tuned = Some hook }], see {!Compile.session}) so
    requests whose shape class has a recorded winner compile under the
    tuned machine model and options instead of the session's own. *)

val with_options : t -> Options.t -> t

val run : t -> Spec.t -> (Compile.t, Sw_arch.Error.t) result
(** {!Compile.run}: the typed-result entry point. *)

val warm_start : t -> int
(** {!Compile.warm_start}: preload the in-memory cache from the durable
    store; returns the number of plans loaded. *)

val cache_stats : t -> Plan_cache.stats option
val store_stats : t -> Sw_host.Store.stats option
