(** Structured, leveled, JSON-lines event log.

    The narrative side of [sw_obs]: where {!Metrics} counts and {!Span}
    times, [Log] records {e what happened} — store puts and quarantines,
    admission sheds, compile failures — as one JSON object
    per line, machine-parseable by the same strict {!Json} parser that
    reads every other artifact of this layer.

    A logger keeps no buffer: each event is streamed to its [out]
    channel when it is logged. The ambient logger mirrors
    {!Metrics}/{!Span}: {e domain-local}, so a pool worker never writes
    into the logger another domain installed. [Sw_host.Pool.map] runs
    each task under a {!fork} (through {!Ctx.run_forked}), which holds
    its events in a list, and {!absorb}s the forks back {e in task
    order} after the barrier, so the emitted lines are identical for
    every [--jobs] value. Timestamps come from the injectable [clock];
    with the default wall clock the {e order and content} of lines are
    jobs-invariant while the [ts] values are wall-time like any log.

    Every event that passes the level filter is also forwarded to the
    {!Flight} recorder (kind ["log"]) when one is installed, so the
    flight dump carries the recent narrative; {!Flight} is the one
    bounded ring. With no logger installed every ambient site is a
    no-op; output of unlogged runs is bit-identical to a build without
    the call sites. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option

type field = Span.arg = S of string | I of int | F of float | B of bool
(** The same fields as span args, rendered by the same mapper. *)

type event = {
  seq : int;  (** position in the owning logger's stream, 0-based *)
  ts : float;  (** seconds since the epoch, from the logger's clock *)
  level : level;
  scope : string;  (** subsystem: "store", "supervise", "compile", ... *)
  name : string;  (** event name within the scope: "put", "admission.shed" *)
  fields : (string * field) list;
}

type t

val create :
  ?min_level:level -> ?clock:(unit -> float) -> ?out:out_channel -> unit -> t
(** A logger keeping the events at or above [min_level] (default
    [Info]). With [out], each one is streamed to the channel as a JSON
    line at log time (absorbed events are streamed by the absorbing
    parent, preserving task order); without, events only reach
    {!Flight}. *)

val fork : t -> t
(** A logger with the parent's level and clock and no output channel
    that holds its events until they are {!absorb}ed — the pool's
    per-task logger. *)

val absorb : into:t -> t -> unit
(** Append the events a {!fork} holds to [into] in order, re-sequencing
    [seq] and streaming them to [into]'s channel. Child timestamps are
    preserved. Events are not re-forwarded to {!Flight} (the child
    already did at log time). *)

(** {2 Ambient logger} (domain-local, like {!Metrics.install}) *)

val install : t -> unit
val uninstall : unit -> unit
val current : unit -> t option
val enabled : unit -> bool

val debug : scope:string -> string -> (string * field) list -> unit
val info : scope:string -> string -> (string * field) list -> unit
val warn : scope:string -> string -> (string * field) list -> unit
val error : scope:string -> string -> (string * field) list -> unit

(** {2 Serialization} *)

val to_line : event -> string
(** One JSON object, no trailing newline. Non-finite float fields render
    as [null] (the emitter's rule). *)
