(** Discrete-event simulation engine.

    Each CPE of the mesh runs as a cooperative fiber implemented with OCaml
    effects: a fiber performs {!delay} to consume simulated time and
    {!await} to block on a monotone counter (the reply counters of the
    athread interfaces). Bandwidth-shared resources (the memory controller,
    the RMA links) are modelled as {!channel}s that serialize transfers;
    completions run as scheduled closures and increment counters, waking any
    blocked fibers.

    The scheduler is deterministic: events fire in (time, creation sequence)
    order, so simulations are exactly reproducible — including under fault
    injection, whose decisions are drawn in event order from the plan's
    seeded PRNG.

    Failures are typed ({!Error.Sim_error}): when the event queue drains
    with fibers still parked, {!run} raises a {!Error.Deadlock} whose
    diagnosis names every blocked fiber, the counter it waits on, the
    current vs awaited value, and the simulated time at which it parked. A
    {!watchdog} bounds runaway simulations by simulated time, event count,
    or host wall-clock. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds. *)

val spawn : ?label:string -> t -> (unit -> unit) -> unit
(** Register a fiber to start at the current simulation time. [label]
    identifies the fiber in deadlock diagnoses (e.g. ["CPE(2,3)"]). *)

val run : t -> float
(** Execute events until none remain; returns the final clock. Raises
    {!Error.Sim_error} with a {!Error.Deadlock} diagnosis if some fiber is
    still blocked on a counter, or {!Error.Watchdog} when a budget set via
    {!set_watchdog} is exceeded. *)

val schedule : t -> after:float -> (unit -> unit) -> unit
(** Schedule a plain closure (not a fiber: it must not perform effects). *)

(** {2 Watchdog} *)

type watchdog = {
  max_sim_s : float option;  (** simulated-time budget *)
  max_events : int option;  (** event-count budget *)
  max_host_s : float option;  (** host wall-clock budget (CPU seconds) *)
}

val no_watchdog : watchdog

val set_watchdog : t -> watchdog -> unit
(** Budgets are checked as events fire; exceeding one raises a typed
    {!Error.Watchdog} instead of spinning. *)

(** {2 Counters} *)

type counter

val new_counter : ?name:string -> t -> counter
(** Counters are registered with the engine so deadlock diagnoses can name
    them; [name] defaults to ["counter-<n>"]. *)

val counter_reset : counter -> unit
(** Reset to zero. Raises {!Error.Sim_error} ([Invalid]) if fibers are
    still waiting on it. *)

val counter_incr : counter -> unit
(** Increment and wake satisfied waiters (at the current clock). *)

(** {2 Fiber-side operations} (only valid inside a [spawn]ed fiber) *)

val delay : float -> unit
(** Advance this fiber's time by the given number of seconds. *)

val await : counter -> int -> unit
(** Block until the counter's value is at least the target. *)

val await_deadline : counter -> int -> timeout:float -> bool
(** Like {!await}, but give up after [timeout] simulated seconds: returns
    [true] if the counter reached the target, [false] on timeout (the
    waiter is deregistered). The basis of the interpreter's bounded
    retry-with-backoff recovery. *)

(** {2 Barriers} *)

type barrier

val new_barrier : ?name:string -> t -> parties:int -> barrier

val barrier_wait : barrier -> unit
(** Fiber-side: block until [parties] fibers have arrived in this round. *)

(** {2 Bandwidth-shared channels} *)

type channel

val new_channel : t -> bw_bytes_per_s:float -> latency_s:float -> channel

val transfer :
  ?faults:Fault.t -> channel -> bytes:int -> on_complete:(unit -> unit) ->
  float * float
(** Issue a non-blocking transfer from a fiber (or a completion closure):
    the channel serializes occupancy at its bandwidth; [on_complete] runs
    [latency] after the transfer drains. Returns immediately with the
    transfer's [(start, completion)] interval, which is known at issue time
    because the channel is deterministic. With [faults], the occupancy is
    perturbed by the plan's jitter/stall decisions; without, the timing is
    bit-identical to the unfaulted model. *)
