(** End-to-end compilation: specification -> schedule tree -> SPMD program.

    This is the top of the pipeline a user calls (the CLI and the C
    front-end feed into it): it pads the problem, runs the analytic tile
    model, then drives the pass pipeline ({!Pass_registry.pipeline}) that
    builds and validates the schedule tree and generates the AST with the
    micro-kernel marks expanded, and packages everything with the
    array/SPM/reply inventories.

    The single primary entry point is {!run}, which compiles under a
    {!session} — the bundle of machine model, options, plan cache, debug
    mode, pass observer and durable store that {!Session} (the
    user-facing constructor lives there) shares across host domains — and
    returns a typed result. {!run_exn} is the thin raising wrapper for
    harness code that wants exceptions; service code (the wire layer, the
    CLI, the fuzzer) consumes {!run} so no exception path exists there. *)

type t = {
  original : Spec.t;  (** the spec as requested *)
  spec : Spec.t;  (** after zero-padding to the decomposition *)
  options : Options.t;
  config : Sw_arch.Config.t;
  tiles : Tile_model.t;
  tree : Sw_tree.Tree.t;
  program : Sw_ast.Ast.program;
  pass_stats : Pass.stat list;  (** per-pass instrumentation of this plan *)
}

type session = {
  config : Sw_arch.Config.t;
  options : Options.t;
  debug : bool;  (** run the inter-pass invariant checker after every pass *)
  cache : t Plan_cache.t option;
  observer : (Pass.t -> Pass.state -> unit) option;
      (** fires after every executed pass — the hook behind [--dump-after] *)
  store : Sw_host.Store.t option;
      (** durable plan store, consulted between the in-memory cache and a
          cold compilation; cold plans are written back. Store I/O
          failures degrade the request to memory-only. *)
  deadline_s : float option;
      (** per-request deadline, on a clock that starts when {!run} is
          called; enforced cooperatively at checkpoints (compile start,
          every pass boundary, store reads and writes) *)
  tuned : (Spec.t -> (Sw_arch.Config.t * Options.t) option) option;
      (** tuning-DB lookup ({!Sw_tune.Search.session_hook} behind
          [--tune-db]): consulted once per request, before the cache key
          is formed, to swap the session's machine model and options for
          the tuned winner of the spec's shape class. [None] from the
          lookup falls back to the session's own [config]/[options].
          Correctness is automatic — cache and store keys cover (spec,
          options, config), so tuned and untuned plans never alias. *)
}
(** See {!Session} for construction and the sharing contract. The record
    is immutable; its mutable components (cache, store) are themselves
    domain-safe, so one session value can be captured by many domains. *)

val run : session -> Spec.t -> (t, Sw_arch.Error.t) result
(** Compile under a session. Failures — invalid option combinations or
    machine model ([Sw_arch.Error.Invalid]), SPM overflow
    ([Sw_arch.Error.Overflow]), internal validation ([Invalid]) — come
    back as values, never as exceptions, so parallel workers can ship
    them across domain boundaries. A session cache hit skips the pipeline
    entirely (the cached plan's [pass_stats] are those of the cold
    compilation).

    With a [store], the lookup order is in-memory cache → durable store →
    cold compilation (written back to the store). With a [deadline_s],
    expiry at any checkpoint fails the request with [Timeout]. *)

val warm_start : session -> int
(** Preload the session's in-memory cache from its durable store
    (validated reads; corrupt entries are quarantined, stale ones
    deleted). Returns the number of plans loaded. 0 when the session
    lacks a store or a cache. *)

val store_schema : string
(** The schema generation under which plans are persisted: a plan format
    version plus the OCaml version (Marshal images are not portable
    across compiler builds). Pass to {!Sw_host.Store.open_}. *)

val encode_plan : t -> string
(** The marshalled image persisted in the store. *)

val decode_plan : string -> t option
(** Inverse of {!encode_plan}; [None] when the payload does not decode
    (treated as a miss by the store path). *)

val run_exn : session -> Spec.t -> t
(** {!run}, raising [Sw_arch.Error.Sim_error] on [Error] — for harness
    and example code; service code consumes {!run}. *)

val flops : t -> int
(** Floating-point operations of the padded problem (what the simulator
    executes and the Gflops numbers are computed from). *)

val generation_seconds : (unit -> t) -> t * float
(** Time a compilation (the engineering-cost experiment, §8.5). *)
