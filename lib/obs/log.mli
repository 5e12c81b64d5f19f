(** Structured, leveled, JSON-lines event log.

    The narrative side of [sw_obs]: where {!Metrics} counts and {!Span}
    times, [Log] records {e what happened} — store puts and quarantines,
    admission sheds, compile failures — as one JSON object
    per line, machine-parseable by the same strict {!Json} parser that
    reads every other artifact of this layer.

    The ambient logger mirrors {!Metrics}/{!Span}: {e domain-local}, so a
    pool worker never writes into the logger another domain installed.
    [Sw_host.Pool.map] gives each task a fresh {!fork} of the parent
    logger and {!absorb}s the buffered events back {e in task order}
    after the barrier, so the event sequence (and the emitted lines) are
    identical for every [--jobs] value. Timestamps come from the
    injectable [clock]; with the default wall clock the {e order and
    content} of lines are jobs-invariant while the [ts] values are
    wall-time like any log.

    Every event that passes the level filter is also forwarded to the
    {!Flight} recorder (kind ["log"]) when one is installed, so the
    flight dump carries the recent narrative. With no logger installed
    every ambient site is a no-op; output of unlogged runs is
    bit-identical to a build without the call sites. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option

type field = S of string | I of int | F of float | B of bool

type event = {
  seq : int;  (** position in the owning logger's buffer, 0-based *)
  ts : float;  (** seconds since the epoch, from the logger's clock *)
  level : level;
  scope : string;  (** subsystem: "store", "supervise", "compile", ... *)
  name : string;  (** event name within the scope: "put", "admission.shed" *)
  fields : (string * field) list;
}

type t

val create :
  ?min_level:level ->
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?out:out_channel ->
  unit ->
  t
(** A logger buffering the most recent [capacity] (default 4096) events
    at or above [min_level] (default [Info]). With [out], every retained
    event is also streamed to the channel as a JSON line at log time
    (absorbed events are streamed by the absorbing parent, preserving
    task order). Raises [Invalid_argument] when [capacity < 1]. *)

val fork : t -> t
(** A fresh, empty logger with the parent's level, capacity and clock but
    no output channel — the pool's per-task logger, to be {!absorb}ed. *)

(** {2 Logging} *)

val event : t -> level -> scope:string -> string -> (string * field) list -> unit
(** Append (and stream, and forward to {!Flight}) if [level] passes the
    logger's filter; otherwise do nothing. *)

val absorb : into:t -> t -> unit
(** Append the child's buffered events to [into] in order, re-sequencing
    [seq] and re-streaming to [into]'s channel. Child timestamps are
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

(** {2 Inspection and serialization} *)

val events : t -> event list
(** Oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events overwritten because the buffer was full. *)

val to_line : event -> string
(** One JSON object, no trailing newline. Non-finite float fields render
    as [null] (the emitter's rule). *)
