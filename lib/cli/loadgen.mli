(** The load-generation harness behind [swgemmgen client loadgen] and
    the bench [service] series.

    Drives [clients] concurrent connections through the domain pool
    against a running server, all issuing the same [compile] request, and
    reports per-request latencies, per-client rows and whether every
    successful response returned byte-identical C — the service-level
    determinism check: one shared session must hand every caller the
    same plan. *)

type client_row = {
  client : int;  (** worker index, 0-based *)
  requests : int;  (** requests this worker issued *)
  errors : int;  (** wire-level errors among them *)
  mean_s : float;  (** mean latency, seconds (0 when no requests) *)
  max_s : float;  (** max latency, seconds *)
}

type result = {
  wall_s : float;  (** whole-run wall clock *)
  rows : client_row list;  (** one per client, in client order *)
  latencies : float list;  (** every request latency, seconds *)
  errors : int;  (** total wire-level errors *)
  identical_c : bool;
      (** all successful responses carried byte-identical [mpe_c]/[cpe_c] *)
  first : Sw_obs.Json.t option;  (** first successful response body *)
}

val run :
  connect:(unit -> Sw_host.Client.t) ->
  params:Sw_obs.Json.t ->
  clients:int ->
  requests:int ->
  unit ->
  result
(** [run ~connect ~params ~clients ~requests ()] opens one connection
    per client (each worker calls [connect] itself, so the daemon sees
    [clients] distinct peers), splits [requests] across them as evenly
    as possible and issues them sequentially per connection. Latencies
    are also recorded into the ambient {!Sw_obs.Metrics} registry (when
    installed) as the [service.request_seconds] histogram. *)

val quantile_ms : float list -> float -> float
(** Latency quantile in milliseconds, estimated through an
    {!Sw_obs.Metrics} exponential-bucket histogram (the same estimator
    the daemon's own [server.request_seconds] metric feeds) — 0 for an
    empty list. *)

val columns : string list
(** Column names of the per-client table: client, requests, errors,
    mean_ms, max_ms. *)

val row_cells : client_row -> string list
(** One client's row under {!columns}, latencies in milliseconds to three
    decimals: the cells both the BENCH_service JSON of [client loadgen]
    and the bench [service] CSV print. *)
