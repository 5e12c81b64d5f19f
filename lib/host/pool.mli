(** Fixed-size domain pool for host-side fan-out.

    The multi-cluster simulator, the fuzzer, the bench series and
    the CLI fault-seed matrix all fan independent jobs out over a pool of
    OCaml 5 domains. The design goals, in order:

    - {b Determinism}: {!map} returns results in input order, and an
      exception raised by a task is re-raised for the {e lowest} input
      index that failed — a run with [jobs = 4] is observably identical
      to a run with [jobs = 1] (byte-identical stdout/JSON for every
      harness built on it).
    - {b Sequential fidelity}: a pool created with [jobs = 1] spawns no
      domains at all; {!map} is then exactly [List.map], so single-job
      runs execute the very code path they always did.
    - {b Observability}: each task runs under {!Sw_obs.Ctx.run_forked}
      of the calling domain's context — a fresh registry, span sink and
      logger for whichever of {!Sw_obs.Metrics}, {!Sw_obs.Span} and
      {!Sw_obs.Log} the caller has installed — and the children are
      {!Sw_obs.Ctx.absorb}ed into the parent in task order after the
      barrier. Counters, gauges, histogram counts and log lines are
      therefore the same whatever the scheduler's interleaving, and every
      worker domain becomes a named lane of the parent's Chrome trace.

    Workers are work-queue based: tasks are pulled dynamically, so uneven
    job costs balance automatically. Worker exceptions are contained —
    they fail the task, never the worker — so the pool cannot deadlock on
    a raising task (qcheck-verified in [test/test_host.ml]). *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val create : jobs:int -> t
(** A pool of [jobs] workers. [jobs = 1] spawns no domains (inline
    execution); [jobs > 1] spawns [jobs] worker domains that live until
    {!shutdown}. Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every element, distributing over the pool's workers, and
    return the results in input order. If any task raised, the exception
    of the lowest-indexed failing task is re-raised (with its backtrace)
    after all tasks finished — the pool stays usable. Do not call [map]
    from inside a task of the same pool: the inner map would wait for
    workers the outer map occupies. *)

val shutdown : t -> unit
(** Stop the workers and join their domains. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)
