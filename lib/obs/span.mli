(** Span-based tracing with Chrome trace-event export.

    A {!sink} accumulates complete events ([ph = "X"]) on (pid, tid)
    tracks plus naming metadata, and renders the Chrome trace-event JSON
    format — load the file in Perfetto (https://ui.perfetto.dev) or
    [chrome://tracing].

    Two time domains share one file by convention: host-side spans (the
    generator: passes, cache, whole compilations) live on [pid = 1] with
    timestamps relative to sink creation, and simulated-cluster events
    (mapped from [Sw_arch.Trace] by [Sw_arch.Obs_bridge]) live on
    [pid = 0] with simulated-time timestamps. Both are microseconds, as
    the format requires. *)

type sink

val create : ?clock:(unit -> float) -> ?epoch:float -> unit -> sink
(** [clock] returns seconds (default [Unix.gettimeofday]); span timestamps
    are taken relative to [epoch] (default: the clock's value at sink
    creation). Pass another sink's {!epoch} to create a worker-lane sink
    whose timestamps line up with the parent's for {!absorb}. *)

val epoch : sink -> float
(** The instant host timestamps are relative to, in the clock's seconds. *)

type arg = S of string | I of int | F of float | B of bool
(** Typed span args; {!Log.field} is the same type. *)

val json_args : (string * arg) list -> Json.t
(** A JSON object of the args — the one mapper that span args and
    {!Log} fields share. *)

val host_pid : int
(** pid 1: host wall-clock tracks (the generator). *)

val sim_pid : int
(** pid 0: simulated-time tracks (the cluster). *)

val span :
  sink ->
  ?cat:string ->
  ?args:(string * arg) list ->
  ?tid:int ->
  string ->
  (unit -> 'a) ->
  'a
(** Time [f] on a host track ([host_pid]); exception-safe. Nested calls
    produce properly nested complete events, which Perfetto renders as a
    flame. *)

val complete :
  sink ->
  ?cat:string ->
  ?args:(string * arg) list ->
  pid:int ->
  tid:int ->
  ts_us:float ->
  dur_us:float ->
  string ->
  unit
(** Record an externally-timed complete event. *)

val instant :
  sink ->
  ?cat:string ->
  ?args:(string * arg) list ->
  pid:int ->
  tid:int ->
  ts_us:float ->
  string ->
  unit

val set_process_name : sink -> pid:int -> string -> unit
val set_thread_name : sink -> pid:int -> tid:int -> string -> unit

val length : sink -> int
(** Events recorded so far (metadata excluded). *)

val absorb : into:sink -> ?tid:int -> sink -> unit
(** Append a child sink's events (and naming metadata) to [into]. With
    [tid], host-pid events are re-homed onto that thread id — the
    per-domain lane stitching the host pool uses to render every worker
    domain as its own track of one Chrome trace. The child should have
    been created with the parent's {!epoch}. *)

(** {2 Ambient sink}

    Domain-local, like {!Metrics}: each domain sees only the sink it
    installed, so parallel workers record into private lanes that the
    pool stitches together afterwards. *)

val install : sink -> unit
val uninstall : unit -> unit
val current : unit -> sink option

val ambient :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span] against the installed sink, or a plain call when none is. *)

(** {2 Export} *)

val to_chrome : sink -> Json.t
(** The [{"traceEvents": [...], "displayTimeUnit": "ms"}] object, events
    in recording order, metadata first. *)
