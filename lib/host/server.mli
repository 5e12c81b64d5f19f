(** The [swgemmd] socket server: line-delimited {!Wire} frames over Unix
    and TCP sockets, one thread per connection.

    The server is generic over what requests {e mean}: it owns framing,
    rate limiting, admission control and drain, and delegates
    each decoded request to a [handler] callback — the GEMM-specific
    dispatch (compile/verify/stat) lives upstream in [Sw_core.Service],
    keeping this library free of any dependency on the compiler.

    Request path, in order: frame decode (protocol violations earn an
    [invalid] error frame, never a crash) → per-client {!Ratelimit}
    ([overloaded], shed before any slot is taken) → the {!Supervise}
    admission gate when one is installed (global backpressure, also
    [overloaded]) → the handler, called once. Every outcome is
    exactly one response frame carrying the request's id.

    {b Drain.} {!drain} only sets an atomic flag (safe from a signal
    handler). Accept loops poll it every ~200 ms and stop accepting;
    connection threads finish the request in flight, then close as soon
    as the connection goes idle; {!serve} joins every thread before
    returning. In-flight requests complete — combined with the store's
    atomic commit this is why a mid-run SIGTERM leaves
    [served_corrupt = 0].

    Threads all live on one domain (systhreads), so the ambient
    {!Sw_obs} metrics/log installed by the daemon are visible to every
    connection; shared counters are mutex-protected. *)

type handler =
  client:string ->
  meth:string ->
  params:Sw_obs.Json.t ->
  (Sw_obs.Json.t, Sw_arch.Error.t) result
(** [client] is a stable per-connection label (the rate-limit key). *)

type t

type stats = {
  served : int;  (** response frames written, errors included *)
  errored : int;  (** responses that carried an error body *)
  shed : int;  (** of those, refusals by the rate limiter *)
  connections : int;  (** connections accepted over the lifetime *)
}

val create :
  ?ratelimit:Ratelimit.t ->
  ?supervisor:Supervise.t ->
  handler:handler ->
  unit ->
  t

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain listener at [path] (an existing socket file is
    replaced; the file is unlinked when {!serve} returns). *)

val listen_tcp : t -> ?host:string -> port:int -> unit -> int
(** Bind a TCP listener on [host] (default loopback); returns the bound
    port ([port = 0] picks a free one). *)

val serve : t -> unit
(** Accept and serve until {!drain}; returns once every listener is
    closed and every connection thread has been joined. Raises
    [Invalid_argument] when no listener was bound. *)

val drain : t -> unit
(** Begin graceful shutdown; async-signal-safe (sets one atomic flag). *)

val stats : t -> stats

val handle_line : t -> client:string -> string -> string
(** One frame in, one frame out — the full request path minus the
    socket, exercised directly by the protocol tests. *)
