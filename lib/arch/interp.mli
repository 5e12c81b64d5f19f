(** SPMD interpreter: runs a generated {!Sw_ast.Ast.program} on the
    simulated cluster.

    One fiber per CPE executes the program body with its own [Rid]/[Cid];
    communication ops use the {!Cluster} primitives, so the simulation is
    timing-accurate (shared memory-controller bandwidth, RMA links, barrier
    costs, micro-kernel cycles) and — in functional mode — moves real data,
    which is how the generated code's correctness is established
    end-to-end.

    Fibers are labelled ["CPE(r,c)"], so a deadlock diagnosis names the
    exact CPE coordinates and the reply counter (with its parity slot) each
    blocked fiber is parked on. *)

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
  functional:bool ->
  mem:Mem.t ->
  ?user:(rid:int -> cid:int -> string -> (string * int) list -> unit) ->
  Sw_ast.Ast.program ->
  (result, Error.t) Stdlib.result
(** Total: never raises {!Error.Sim_error}. [Ok] means the run completed
    race-free; every failure is a typed [Error]: [Race] listing every
    double-buffering violation (sorted by CPE then buffer), [Invalid] for
    malformed programs (unbound loop variables, unknown parameters, a
    [User] statement without a [user] callback), [Overflow] for SPM
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
