(** Running compiled programs on the simulated cluster.

    Every entry point below is a view over one private execution path:
    set up main memory (random inputs for functional runs, bare arrays for
    timing-only ones), run {!Sw_arch.Interp.run} once — whose [Error]
    already folds double-buffering races into [Race] — degrade to an MPE
    re-run when fault recovery is exhausted, and, functionally, compare C
    against the {!Sw_blas} reference.

    {!verify} executes the generated code functionally (real data movement
    through SPM buffers, DMA, RMA and micro kernels) and compares the
    result against the reference — the end-to-end correctness argument for
    the whole pipeline.

    {!verify_resilient} does the same under an injected fault plan
    ({!Sw_arch.Fault}), with bounded retry-with-backoff on reply waits and
    graceful degradation to an MPE re-run when retries are exhausted. Its
    contract is the resilience property tested in [test/test_fault.ml]:
    every run either matches the reference or returns a typed error —
    never a hang, never silent corruption.

    {!measure} produces the timing the experiments report. Small problems
    are simulated exactly; large ones use block-periodic extrapolation: the
    generated code is a product of identical mesh-block executions whose
    duration is affine in the number of k-panels once the software pipeline
    reaches steady state, so two exact block simulations at different
    panel counts determine the whole series. [test/test_core.ml] checks the
    extrapolation against exact simulation. *)

type perf = {
  seconds : float;  (** simulated wall time of the full problem *)
  gflops : float;  (** padded-problem flops / seconds / 1e9 *)
  exact : bool;  (** [false] when block extrapolation was used *)
}

type error =
  | Sim of Sw_arch.Error.t
      (** typed simulation failure: deadlock diagnosis, race list (all
          races, sorted by CPE), bounds, overflow, watchdog, ... *)
  | Mismatch of { batch : int; diff : float; scale : float; spec : string }
      (** functional result diverged from the reference *)

val error_to_string : error -> string

exception Runner_error of error

val verify : ?seed:int -> ?tol:float -> Compile.t -> (unit, error) result
(** Functional run against the reference; [Error] carries the typed
    failure — a [Mismatch], or [Sim (Race ...)] listing {e every} detected
    double-buffering race with its CPE coordinates. Default [tol] is
    [1e-9] (relative). *)

(** {2 Resilient execution} *)

type recovery =
  | No_recovery  (** clean run, no fault impact on control flow *)
  | Retried of int  (** recovered by re-waiting [n] timed-out waits *)
  | Mpe_fallback of { reason : string }
      (** retries exhausted; the problem re-ran on the management core *)

val recovery_to_string : recovery -> string

type resilient = { seconds : float; recovery : recovery }

val verify_resilient :
  ?seed:int ->
  ?tol:float ->
  ?faults:Sw_arch.Fault.t ->
  ?retry:Sw_arch.Interp.retry_policy ->
  ?watchdog:Sw_arch.Engine.watchdog ->
  ?trace:Sw_arch.Trace.t ->
  Compile.t ->
  (resilient, error) result
(** Functional verification under fault injection. [Ok] means the final C
    matches the reference, possibly via recovery (see {!recovery});
    [Error] is always typed — a flipped SPM element surfaces as
    [Mismatch], stale replies as [Sim (Race ...)] or [Mismatch], a
    permanently lost reply without retry budget as [Sim (Deadlock ...)]
    or [Sim (Fault_exhausted ...)]-derived fallback. [retry] defaults to
    {!Sw_arch.Interp.default_retry}. *)

val timing_resilient :
  ?faults:Sw_arch.Fault.t ->
  ?retry:Sw_arch.Interp.retry_policy ->
  ?watchdog:Sw_arch.Engine.watchdog ->
  ?trace:Sw_arch.Trace.t ->
  Compile.t ->
  (resilient, error) result
(** Timing-only counterpart of {!verify_resilient}, for measuring the
    overhead of the recovery path (see [bench resilience]). *)

(** {2 Timing} *)

val timing_memory : Sw_ast.Ast.program -> Sw_arch.Mem.t
(** Main memory for a timing-only run: every declared array allocated
    (DMA offsets are still bounds-checked), no data installed. *)

val measure : ?force_exact:bool -> Compile.t -> perf
(** Timing-only simulation. Raises [Runner_error (Sim e)] for every typed
    failure [e]: a simulator failure (races, deadlock, bounds, ...) or, on
    shapes too large to simulate exactly, a failed recompile of the
    one-block kernel the measurement extrapolates from. *)

val measure_exact : Compile.t -> perf
(** Full simulation regardless of size (slow for large shapes). *)

val traced : Compile.t -> Sw_arch.Trace.t * perf
(** Timing simulation with event tracing enabled: returns the trace of
    every kernel invocation, DMA/RMA transfer and blocked interval together
    with the exact performance. Use {!Sw_arch.Trace.utilization} to measure
    how much communication latency the software pipeline actually hides. *)
