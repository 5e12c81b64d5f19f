(** Discrete-event simulation engine.

    A fiber is an explicit state machine, not a continuation: the engine
    calls the client's [resume] with the fiber's id whenever it is due (at
    its start, after a {!delay}, when the counter it {!await}s reaches its
    target, or at its deadline), and the client keeps its program counter.
    A fiber-side operation returns [true] when it suspended the fiber, and
    the client then returns from [resume]. Bandwidth-shared resources (the
    memory controller, the RMA links) are {!channel}s that serialize
    transfers, each completing in an event for the client's [event].

    The queue is three structures over flat arrays of times, seqs and tags
    (a tag names the event's kind and argument): a FIFO ring of the events
    due at the current instant, a FIFO lane of later events queued in time
    order, and a binary heap for the rest. Queuing and running an event
    allocate nothing, and only an event queued out of time order costs a
    sift. Events fire in (time, creation sequence) order, so simulations
    are exactly reproducible — including under fault injection, whose
    decisions are drawn in event order from the plan's seeded PRNG. With a
    metrics registry installed, [run] counts the events each structure
    served in [sim.queue_events_total{queue=ring|lane|heap}].

    Failures are typed ({!Error.Sim_error}): a {!Error.Deadlock} names
    every fiber still parked when the queue drains, its counter, current
    vs awaited value and park time; a {!watchdog} bounds runaway
    simulations. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds. *)

val run : t -> resume:(int -> unit) -> event:(int -> unit) -> float
(** Execute events until none remain; returns the final clock. [resume f]
    runs fiber [f]; [event p] completes the transfer issued with [~event:p].
    Raises {!Error.Sim_error}: a {!Error.Deadlock} diagnosis if some fiber
    is still blocked on a counter, {!Error.Watchdog} when a budget set via
    {!set_watchdog} is exceeded. *)

(** {2 Watchdog} *)

type watchdog = {
  max_sim_s : float option;  (** simulated-time budget *)
  max_events : int option;  (** event-count budget *)
}

val no_watchdog : watchdog

val set_watchdog : t -> watchdog -> unit
(** Budgets are checked as events fire; exceeding one raises a typed
    {!Error.Watchdog} instead of spinning. *)

(** {2 Fibers and counters} *)

val spawn : ?label:string -> t -> int
(** Register a fiber, due at the current time, and return its id (ids
    count up from 0). [label] names it in deadlock diagnoses (e.g.
    ["CPE(2,3)"]); it defaults to ["fiber-<id>"]. *)

val delay : t -> int -> float -> bool
(** [delay t f d] suspends fiber [f] for [d] seconds; [false] (nothing
    suspended) when [d <= 0]. *)

type counter

val new_counter : ?name:string -> t -> counter
(** Counters are registered with the engine so deadlock diagnoses can name
    them; [name] defaults to ["counter-<n>"]. *)

val counter_reset : counter -> unit
(** Reset to zero. Raises {!Error.Sim_error} ([Invalid]) if fibers are
    still waiting on it. *)

val counter_incr : counter -> unit
(** Increment and wake satisfied waiters, the most recently parked first. *)

val incr_after : t -> counter -> after:float -> unit
(** Schedule a {!counter_incr} [after] seconds from now; raises
    {!Error.Sim_error} ([Invalid]) for a time in the past. *)

val await : ?timeout:float -> t -> int -> counter -> int -> bool
(** [await t f c n] parks fiber [f] until [c] reaches [n]; [false] when it
    already has. With [timeout], the fiber is also resumed after that many
    seconds if the counter has not reached the target by then, and
    {!timed_out} tells the two apart: the basis of the interpreter's
    bounded retry. *)

val timed_out : t -> int -> bool
(** Whether the fiber's last {!await} gave up at its deadline (the waiter
    was deregistered). *)

type barrier

val new_barrier : ?name:string -> t -> parties:int -> barrier

val barrier_wait : t -> int -> barrier -> bool
(** Arrive, and park until [parties] fibers have arrived in this round;
    [false] for the last arrival, which releases the others. *)

(** {2 Bandwidth-shared channels} *)

type channel = private {
  bw : float;
  latency : float;
  mutable busy_until : float;
  mutable start : float;  (** when the last transfer issued starts *)
  mutable finish : float;  (** when it completes *)
}
(** Float-only, so a transfer's interval is read without an allocation. *)

val new_channel : bw_bytes_per_s:float -> latency_s:float -> channel

val transfer : ?faults:Fault.t -> t -> channel -> bytes:int -> event:int -> unit
(** Issue a non-blocking transfer: the channel serializes occupancy at its
    bandwidth, and the event fires [latency] after the transfer drains.
    The interval, known at issue because the channel is deterministic, is
    left in [start] and [finish]. With [faults], the occupancy is
    perturbed by the plan's jitter/stall decisions; without, the timing is
    bit-identical to the unfaulted model. *)
