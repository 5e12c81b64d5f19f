(** The calling domain's observability context, forked per parallel task
    and absorbed back in task order.

    [Metrics], [Span] and [Log] each keep their own domain-local slot
    (their hot call sites stay a single slot read); a [t] is a view of
    all three, so [Sw_host.Pool.map] forks and absorbs them on one path
    without naming any of them. *)

type t
(** The installed registry, span sink and logger; each one optional. *)

val current : unit -> t
(** What the calling domain has installed. *)

val run_forked : t -> (unit -> 'a) -> 'a * t
(** [run_forked parent f] installs a fresh child for each part [parent]
    has — an empty registry, a sink on the parent's epoch, a
    {!Log.fork} — runs [f], uninstalls them (also when [f] raises) and
    returns them with [f]'s result. *)

val absorb : into:t -> lane:int -> t -> unit
(** Merge a child from {!run_forked} into its parent: the metrics
    snapshot through {!Metrics.absorb}, the spans onto a host track
    named ["domain <lane>"] through {!Span.absorb}, and the held log
    events through {!Log.absorb}. Absorbing children in task order makes
    every channel independent of the scheduler's interleaving. *)
