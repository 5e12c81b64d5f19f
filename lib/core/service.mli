(** The GEMM request dispatcher behind [swgemmd]: gives meaning to the
    method names the generic {!Sw_host.Server} transports.

    Methods of protocol v1 (params and results are the documented JSON
    shapes; see DESIGN.md §14):

    - [ping] — liveness; answers [{pong: true}].
    - [compile] — [params.spec] ({!Spec.of_json}), optional
      [params.options] ({!Options.of_json}); compiles through the shared
      session (plan cache → store → cold pipeline) and answers the
      program name ([name], the emit-file basename), the request spec,
      the padded spec, the resolved options and the two generated C
      files ([mpe_c], [cpe_c]) — byte-identical to what batch
      [swgemmgen compile --emit] writes.
    - [verify] — like [compile], then runs the functional simulation
      against the reference; answers [{verified: true, ...}] or a typed
      error ([race], [deadlock], [invalid], ...).
    - [profile] — like [compile], then measures the plan on the
      performance simulator ({!Report.measure}); answers
      {!Report.to_json}: [{gflops, seconds, exact, spec, padded, options,
      spm_bytes}] ([gflops] is padded-problem flops per second;
      [exact: false] marks block-periodic extrapolation). The last four
      members are those the [compile] body carries too
      ({!Report.plan_fields}).
    - [stat] — cache and store counters of the shared session
      ([null] for an absent component).

    Deployments can mount additional methods as {e extensions}
    ([swgemmd --tune-db] mounts [tune]); extensions dispatch after the
    builtins and are listed in the unknown-method error alongside them.

    Unknown methods and malformed params answer the [invalid] class.
    The handler never raises — every failure is a typed
    [Sw_arch.Error.t] the wire layer renders with its stable class
    token. One [t] wraps the one long-lived {!Session} of the daemon. *)

type t

type extension =
  Sw_obs.Json.t -> (Sw_obs.Json.t, Sw_arch.Error.t) result
(** An extension method body: params in, result or typed error out. Must
    not raise — wrap failures in the [invalid] class like the builtins. *)

val create : ?extensions:(string * extension) list -> session:Session.t -> unit -> t
(** Raises [Invalid_argument] when an extension name shadows a builtin
    method. *)

val handle :
  client:string ->
  meth:string ->
  params:Sw_obs.Json.t ->
  t ->
  (Sw_obs.Json.t, Sw_arch.Error.t) result
(** Shaped so [handle] partially applied is a [Sw_host.Server.handler]
    via {!handler}. *)

val handler : t -> Sw_host.Server.handler

val compile_result_json : Compile.t -> Sw_obs.Json.t
(** The [compile] response body — exposed so the CI smoke test can
    compare a daemon response against a locally compiled plan. *)
