(** A measured plan: one compiled GEMM and its simulated performance.

    This is the fact [swgemmgen perf], [breakdown] and [profile] and the
    wire [profile] method all report (the paper's Fig. 13 breakdown and
    its xMath comparison): each renders it from this one record. The
    constructors are the one place a {!Runner.Runner_error} becomes a
    typed {!Sw_arch.Error.t}. The timing path raises only [Runner.Sim e],
    which comes back as [e]. *)

type t = { compiled : Compile.t; perf : Runner.perf }

val measure : Compile.t -> (t, Sw_arch.Error.t) result
(** {!Runner.measure}: exact on small problems, block-extrapolated on
    large ones. *)

val traced : Compile.t -> (Sw_arch.Trace.t * t, Sw_arch.Error.t) result
(** {!Runner.traced}: an exact run with its event trace. *)

val plan_fields : Compile.t -> (string * Sw_obs.Json.t) list
(** [spec] (as requested), [padded], [options] and [spm_bytes]: the
    members the wire [compile] and [profile] bodies share. *)

val to_json : ?extra:(string * Sw_obs.Json.t) list -> t -> Sw_obs.Json.t
(** The wire [profile] body, [{gflops, seconds, exact}] followed by
    {!plan_fields}, then [extra] (default none). *)

val to_text : t -> string
(** [gflops] and its share of the plan's machine peak, as
    ["%10.2f Gflops (%5.2f%% of peak)"], followed by
    ["  [extrapolated]"] when the timing was not exact. *)
