(** Flight recorder: a bounded ring of recent observability records,
    dumped atomically to a JSON file when something goes wrong.

    The recorder is the post-mortem side of [sw_obs]: {!Log} events,
    completed ambient spans, store operations and crash-site hits are
    all {!record}ed into one process-global ring (capacity-bounded,
    oldest overwritten first). When a typed error escapes [Compile.run],
    a store entry is quarantined or a [Sw_host.Crash] site fires, the triggering site calls
    {!trigger} and the last N records — plus a snapshot of the ambient
    metrics registry, when one is installed — land in
    [<dir>/flightrec-<ts>.json], written atomically via a temp file.

    Unlike the {!Metrics} registry and the {!Log} logger, which are
    domain-local, the recorder is {e global} (one mutex-protected ring
    per process): trigger sites fire from pool worker domains and the
    forensic record must interleave everything that actually happened.
    Record order under parallelism is therefore wall-clock order, not
    task order — this is a crash-dump facility, not a determinism
    surface; everything here is off by default and every instrumentation
    site is a single ref read when no recorder is installed. *)

type record = {
  kind : string;  (** "log", "span", "store", "crash" *)
  ts : float;  (** seconds, from the recorder's clock *)
  body : Json.t;
}

type t

val create :
  ?capacity:int -> ?clock:(unit -> float) -> ?dir:string -> unit -> t
(** A recorder holding the last [capacity] (default 256) records.
    [dir] (default ["results"]) is where {!trigger} and {!dump} write
    their files. Raises [Invalid_argument] when [capacity < 1]. *)

(** {2 Ambient recorder} *)

val install : t -> unit
val uninstall : unit -> unit
val enabled : unit -> bool

val record : kind:string -> Json.t -> unit
(** Append to the installed recorder; no-op (one ref read) without one.
    Call sites that must build a [body] should guard with {!enabled} so
    the off path allocates nothing. *)

val note : t -> kind:string -> Json.t -> unit
(** Direct (non-ambient) append. *)

(** {2 Inspection} *)

val records : t -> record list
(** Oldest first. *)

val length : t -> int

val dropped : t -> int
(** Records overwritten because the ring was full. *)

(** {2 Dumping} *)

val dump : ?path:string -> reason:string -> t -> string
(** Write the ring (plus the ambient metrics snapshot, when a registry is
    installed) to [path] — default
    [<dir>/flightrec-<ms>-<pid>-<n>.json] — atomically, and return the
    path. Never raises on I/O failure (a failing dump must not mask the
    failure being dumped); the returned path may then not exist. *)

val trigger : reason:string -> string option
(** [dump] on the installed recorder, or [None] without one. The
    triggering failure sites each call this exactly once per failure. *)
