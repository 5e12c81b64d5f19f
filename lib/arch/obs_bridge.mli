(** Bridge from simulated-cluster traces to the observability layer.

    {!samples}/{!profile} feed {!Sw_obs.Profile} — each CPE becomes one
    track, kernel and SPM element-wise events become compute, DMA/RMA
    transfers become communication at their pipeline level, and reply
    waits become exposed latency attributed by the level that armed the
    reply. Receiver-side RMA events are excluded (the sender's transfer
    already carries the interval). {!to_chrome} lays the same trace out
    as Chrome trace-event tracks — pid {!Sw_obs.Span.sim_pid}, one tid
    per CPE in row-major order — for Perfetto. *)

val profile : Trace.t -> Sw_obs.Profile.t

val to_chrome : Trace.t -> mesh:int * int -> Sw_obs.Span.sink -> unit
(** Appends thread/process naming metadata and one event per trace entry
    (zero-duration entries become instants). *)
