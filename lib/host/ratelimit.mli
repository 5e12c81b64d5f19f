(** Per-client token buckets for the daemon's wire endpoints.

    Each key (a client address) owns a bucket of capacity [burst] that
    refills continuously at [rate_per_s] tokens per second; a request
    costs one token. A client may therefore burst [burst] back-to-back
    requests, then sustain [rate_per_s] requests per second — the
    classic token-bucket shape, chosen over a fixed window because a
    compile request is expensive and a window boundary would admit
    [2*burst] in an instant.

    Refusals are shaping, not admission control: the limiter answers
    per-client fairness ("is {e this peer} too chatty?"), while
    {!Supervise} answers global capacity ("is the {e service} full?").
    The server consults the limiter first — a shed here is cheap (no
    slot taken) and surfaces as the same typed
    [overloaded] wire error class.

    The clock is injectable so tests drive refill deterministically.
    All operations take one internal mutex; buckets are created on first
    sight of a key. *)

type t

val create : ?now:(unit -> float) -> rate_per_s:float -> burst:int -> unit -> t
(** Raises [Invalid_argument] unless [rate_per_s > 0] and [burst >= 1].
    [now] defaults to [Unix.gettimeofday]. *)

val try_admit : t -> key:string -> bool
(** Take one token from [key]'s bucket; [false] (and no state change
    beyond the refill) when the bucket holds less than one token. *)

val admit : t -> key:string -> (unit, Sw_arch.Error.t) result
(** {!try_admit} surfacing refusal as [Sw_arch.Error.Overloaded] with
    [limit] = the sustained rate (rounded up), so the wire layer ships
    the stable [overloaded] class token. *)

val tokens : t -> key:string -> float
(** Current token balance (after refill) — introspection for tests. *)
