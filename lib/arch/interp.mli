(** SPMD interpreter: runs a generated {!Sw_ast.Ast.program} on the
    simulated cluster, one fiber per CPE with its own [Rid]/[Cid]. The
    communication ops use the {!Cluster} primitives, so the simulation is
    timing-accurate (shared memory-controller bandwidth, RMA links, barrier
    costs, micro-kernel cycles) and — when [mem] is functional — moves real
    data, which is how the generated code's correctness is established
    end-to-end.

    The program is lowered once per run into one flat array of ops, and
    every fiber walks it with its own program counter, in both modes: an
    op is a closure made at lowering, loops and conditionals are jumps,
    variables live in int slots of a per-CPE environment, parameters are
    constants, each affine expression and predicate is a closure
    ({!Sw_poly.Aff.lower}, {!Sw_tree.Pred.lower}), and each SPM buffer,
    reply counter and main-memory array is resolved once to a handle. A
    name that does not resolve lowers to an op that fails with the
    [Invalid] text of a lookup by name when it executes, so an op that
    never executes never fails. Fibers are labelled ["CPE(r,c)"], so a
    deadlock diagnosis names the CPE and the reply counter (with its
    parity slot) each blocked fiber is parked on. *)

type retry_policy = {
  timeout_s : float;  (** first deadline for a blocked wait *)
  backoff : float;  (** deadline multiplier per retry *)
  max_retries : int;  (** retries before {!Error.Fault_exhausted} *)
}

val default_retry : retry_policy
(** 50 us first deadline, x2 backoff, 8 retries — tuned so a reply dropped
    and re-delivered by the default {!Fault.spec} is recovered well within
    the budget. *)

type result = {
  seconds : float;
      (** simulated wall time: mesh startup + the slowest CPE's finish *)
  retries : int;  (** timed-out waits that were retried (0 without faults) *)
}

val run :
  ?trace:Trace.t ->
  ?faults:Fault.t ->
  ?watchdog:Engine.watchdog ->
  ?retry:retry_policy ->
  config:Config.t ->
  mem:Mem.t ->
  ?user:(rid:int -> cid:int -> string -> (string * int) list -> unit) ->
  Sw_ast.Ast.program ->
  (result, Error.t) Stdlib.result
(** Total: never raises {!Error.Sim_error}. [Ok] means the run completed
    race-free; every failure is a typed [Error]: [Race] listing every
    double-buffering violation (sorted by CPE then buffer), [Invalid] for
    malformed programs (unbound loop variables, unknown parameters,
    reply counters, SPM buffers or main-memory arrays, a [User] statement
    without a [user] callback; each raised when the op naming it
    executes; a duplicate or empty SPM declaration), [Overflow] for SPM
    exhaustion, [Bounds] for out-of-range main-memory accesses,
    [Deadlock] (with a full quiescence diagnosis) when fibers block
    forever, [Watchdog] when a [?watchdog] budget trips, and
    [Fault_exhausted] when a wait under [?retry] runs out of retries.

    [?faults] perturbs the simulation per the plan; omitted, every fault
    hook short-circuits and results are bit-identical to the pre-fault
    model. [?retry] arms bounded retry-with-backoff on [Wait] ops; it is
    ignored when [?faults] is absent (a wait can only starve under
    injection), and without it a permanently dropped reply deadlocks —
    with forensics — instead. *)

val gflops : flops:int -> seconds:float -> float
(** Convenience: [flops / seconds / 1e9]. *)
