(** Supervised execution: deadlines, retries, circuit breaker, admission.

    Wraps host-side requests (plan compilations, store operations) in a
    service-grade envelope. Every refusal is a typed {!Sw_arch.Error}
    value:

    - [Timeout] — the cooperative deadline expired (at admission, before
      an attempt, or at a {!checkpoint} inside the work);
    - [Overloaded] — admission control shed the request: [max_in_flight]
      requests running and [max_queued] already waiting;
    - [Circuit_open] — the request's shape class has tripped its breaker
      and is cooling down.

    Retryable errors ({!Sw_arch.Error.retryable}) are retried up to
    [max_attempts] with exponential backoff and seeded jitter; everything
    else fails fast.

    The clock and sleeper are injectable so tests drive the state machine
    with a fake clock. *)

type policy = {
  deadline_s : float option;  (** total wall-clock budget per request *)
  max_attempts : int;  (** >= 1; total tries, not retries *)
  backoff_base_s : float;  (** first retry delay; doubles per attempt *)
  backoff_max_s : float;  (** backoff cap before jitter *)
  jitter_frac : float;  (** delay *= 1 + jitter_frac * U[0,1) *)
  breaker_threshold : int;
      (** consecutive failures tripping a class's breaker; 0 disables *)
  breaker_cooldown_s : float;  (** open duration before a half-open probe *)
  max_in_flight : int;  (** concurrent admitted requests *)
  max_queued : int;  (** waiting requests beyond that before shedding *)
}

val default_policy : policy
(** 3 attempts, 10 ms base / 1 s cap backoff, 25% jitter, breaker at 5
    failures with a 5 s cooldown, 64 in flight, 256 queued, no deadline. *)

type t

val create :
  ?policy:policy ->
  ?seed:int ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  unit ->
  t
(** [seed] fixes the jitter stream; [now]/[sleep] default to wall clock.
    Raises [Invalid_argument] on a nonsensical policy. *)

(** {1 Deadline tokens} *)

type token
(** A per-request deadline clock, handed to the supervised work. *)

val token : ?deadline_s:float -> t -> stage:string -> token
(** A standalone token (outside {!run}) for code that wants deadline
    checkpoints without the full envelope. [deadline_s] defaults to the
    policy's. *)

val checkpoint : ?stage:string -> token -> (unit, Sw_arch.Error.t) result
(** Cooperative cancellation point: [Error (Timeout _)] once the
    deadline has passed, tagging the most recent [stage]. *)

(** {1 The envelope} *)

val run :
  t ->
  ?shape_class:string ->
  ?deadline_s:float ->
  (token -> ('a, Sw_arch.Error.t) result) ->
  ('a, Sw_arch.Error.t) result
(** Admission → breaker check ([shape_class], if any) → bounded attempt
    loop. The deadline clock starts at admission; the slot is released on
    any exit. The outcome feeds the class's breaker. *)

(** {1 Introspection (tests, CLI)} *)

val admit : t -> token -> (unit, Sw_arch.Error.t) result
val release : t -> unit
val in_flight : t -> int
val breaker_state : t -> string -> [ `Closed | `Open | `Half_open ]
val breaker_note : t -> string -> ok:bool -> unit
