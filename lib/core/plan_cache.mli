(** Compilation plan cache — sharded and domain-safe.

    Compiling a spec is deterministic in (spec, options, machine model), so
    repeated compilations — the autotuner sweeping shapes, a batched
    workload re-emitting the same kernel, the breakdown study — can reuse
    the finished plan. The cache is a bounded FIFO keyed by a digest of the
    three inputs; {!Compile.run} consults the one in its session.

    The cache may be shared across domains: keys hash onto [shards]
    independent mutex-protected shards, producers run outside the lock,
    and a produce already in flight is joined rather than duplicated — two
    domains racing on one key yield one miss and one hit, exactly like two
    sequential calls. *)

type 'a t

type stats = { hits : int; misses : int; evictions : int; entries : int }
(** When an ambient {!Sw_obs.Metrics} registry is installed, every hit,
    miss and FIFO eviction also bumps [plan_cache.hits_total] /
    [plan_cache.misses_total] / [plan_cache.evictions_total]. *)

val create : ?capacity:int -> ?shards:int -> unit -> 'a t
(** FIFO-evicting cache holding at most [capacity] (default 64) plans,
    hashed over [shards] (default 1) independent shards of
    [capacity/shards] entries each. With the default single shard the
    eviction order is the historical global FIFO; with more shards each
    shard evicts its own oldest entry, which trades exact FIFO order for
    less lock contention. Raises [Invalid_argument] when [capacity <= 0]
    or [shards <= 0]. *)

val key : spec:Spec.t -> options:Options.t -> config:Sw_arch.Config.t -> string
(** Digest of the marshalled (spec, options, config) triple. Any change to
    the requested problem, the enabled optimizations or the machine model
    produces a different key. *)

val find_or_add : 'a t -> key:string -> (unit -> 'a) -> 'a
(** Return the cached plan for [key], or run the producer, cache its
    result (evicting the shard's oldest entry when full) and return it.
    A concurrent caller of the same key blocks until the in-flight
    producer settles and then takes a hit. A producer that raises caches
    nothing; its exception propagates to the producing caller and one of
    the waiters retakes the produce. *)

val add : 'a t -> key:string -> 'a -> bool
(** Insert [key] if absent (evicting the shard's oldest entry when full),
    counting as neither hit nor miss. [false] when the key is already
    present or in flight. The warm-start path: plans decoded from the
    durable store are preloaded without skewing traffic counters. *)

val mem : 'a t -> string -> bool
val stats : 'a t -> stats
