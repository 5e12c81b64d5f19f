(** Running compiled programs on the simulated cluster.

    {!simulate} is the one way any generated program — a GEMM plan, a
    multi-cluster job, a GEMV kernel, an example's layer — is executed:
    allocate every declared array, copy the given operands into the
    top-left corner of each (zeros elsewhere), run {!Sw_arch.Interp.run}
    once, and hand back the result with the memory for {!read}. Its
    [Error] already folds double-buffering races into [Race].

    Every other entry point below is a view over {!simulate}: {!verify}
    seeds the inputs with {!inputs}, degrades to an MPE re-run when fault
    recovery is exhausted, and compares C against {!reference} under
    {!first_mismatch}. Those three are the repo's only copies of the
    seeded operands, the reference and the tolerance policy.

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
    panel counts determine the whole series. [test/test_calibration.ml]
    checks the extrapolation against exact simulation on the real config. *)

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

val to_error : error -> Sw_arch.Error.t
(** As a typed error: [Sim e] is [e], a [Mismatch] is [Invalid] with its
    {!error_to_string} text. *)

exception Runner_error of error

(** {2 Simulation} *)

val simulate :
  ?trace:Sw_arch.Trace.t ->
  ?faults:Sw_arch.Fault.t ->
  ?retry:Sw_arch.Interp.retry_policy ->
  ?watchdog:Sw_arch.Engine.watchdog ->
  config:Sw_arch.Config.t ->
  Sw_ast.Ast.program ->
  operands:(string * Sw_blas.Matrix.t array) list ->
  (Sw_arch.Interp.result * Sw_arch.Mem.t, Sw_arch.Error.t) result
(** Run [program] once on the cluster [config] describes. Every array in
    [program.arrays] is allocated; an operand [(name, batches)] fills
    batch [i] of [name] from the top-left corner of [batches.(i)], with
    zeros elsewhere (a 2-D array takes exactly one batch). Arrays without
    an operand are zero. With [operands = []] the run is timing-only: its
    memory holds only extents ({!Sw_arch.Mem.create}), so no data is
    installed or moved and only DMA offsets are bounds-checked. The
    optional arguments pass through to {!Sw_arch.Interp.run}. Operands
    must fit their arrays' extents. *)

val read :
  Sw_arch.Mem.t -> string -> rows:int -> cols:int -> Sw_blas.Matrix.t array
(** [read mem name ~rows ~cols] copies out the top-left [rows x cols]
    corner of every batch of [name] (one matrix for a 2-D array). Raises
    [Invalid_argument] on a timing run's memory, which holds no data. *)

(** {2 Verification} *)

val inputs :
  Spec.t ->
  seed:int ->
  Sw_blas.Matrix.t array * Sw_blas.Matrix.t array * Sw_blas.Matrix.t array
(** Seeded random [(a, b, c)], one matrix per batch, at the spec's stored
    shapes ([A] is [k x m] when transposed, and so on). Batch [i] of array
    [X] is [Matrix.random] under seed [seed + 31 i + Hashtbl.hash "X"]. *)

val reference :
  Spec.t ->
  a:Sw_blas.Matrix.t array ->
  b:Sw_blas.Matrix.t array ->
  c:Sw_blas.Matrix.t array ->
  Sw_blas.Matrix.t array
(** The {!Sw_blas.Dgemm} result of the spec (alpha, beta, transposition,
    fusion) per batch, on fresh copies of [c]. *)

val first_mismatch :
  Sw_blas.Matrix.t array ->
  Sw_blas.Matrix.t array ->
  (int * float * float) option
(** [first_mismatch expected got] is the first batch [i] whose largest
    absolute difference exceeds [1e-9] times
    [scale = max 1 (max |expected.(i)|)], as [Some (i, diff, scale)]. *)

val verify : ?seed:int -> Compile.t -> (unit, error) result
(** Functional run over {!inputs} (default [seed] 42) at the padded
    shapes, checked against {!reference} with {!first_mismatch}; [Error]
    carries the typed failure — a [Mismatch], or [Sim (Race ...)] listing
    {e every} detected double-buffering race with its CPE coordinates. *)

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

val measure : Compile.t -> perf
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
