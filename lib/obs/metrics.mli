(** Metrics registry: named counters, gauges and exponential-bucket
    histograms, with labels.

    One registry is the write side of the whole system's instrumentation:
    the pass pipeline, the plan cache, the simulation engine and the fault
    layer all record into whichever registry is {!install}ed, and the CLI,
    bench harness and CI all read {!snapshot}s of it. Instrumentation
    sites are no-ops when no registry is installed — a single ref read —
    so runs without [--metrics] are unperturbed.

    Metric identity is (name, sorted label set). Conventions: names are
    dot-separated ([plan_cache.hits_total], [sim.reply_wait_seconds]);
    cumulative counters end in [_total] or name the unit; histograms name
    their unit ([..._seconds]). The catalogue lives in
    DESIGN.md §"Observability". *)

type registry

val create : unit -> registry

(** {2 Instruments} *)

type counter
type gauge
type histogram

val counter : registry -> ?labels:(string * string) list -> string -> counter
(** Find-or-create; the same (name, labels) always returns the same
    instrument. *)

val gauge : registry -> ?labels:(string * string) list -> string -> gauge

val histogram :
  registry ->
  ?labels:(string * string) list ->
  ?lower:float ->
  ?growth:float ->
  ?buckets:int ->
  string ->
  histogram
(** Exponential buckets: bucket [i] (1-based) covers
    [\[lower * growth^(i-1), lower * growth^i)]; bucket 0 catches values
    below [lower] (including zero and negatives) and bucket [buckets+1]
    everything at or above the top boundary. Defaults: [lower = 1e-9],
    [growth = 2.0], [buckets = 48] — nanoseconds to ~78 hours. Bucket
    parameters are fixed by the first creation of a given (name, labels);
    later calls reuse them. *)

val incr : ?by:int -> counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {2 Ambient registry}

    The ambient registry is {e domain-local} (one slot per OCaml domain):
    a worker domain never records into the registry another domain
    installed, so instruments are only ever mutated from one domain.
    {!Sw_host.Pool} gives each parallel task a fresh registry and
    {!absorb}s the snapshots into the parent's registry in task order,
    which makes parallel metric totals deterministic. *)

val install : registry -> unit
val uninstall : unit -> unit
val current : unit -> registry option
val enabled : unit -> bool

val incr_a : ?labels:(string * string) list -> ?by:int -> string -> unit
(** Ambient convenience: increment the named counter of the installed
    registry, or do nothing. Cold-path sites use these; hot paths resolve
    an instrument once and keep it. *)

val set_a : ?labels:(string * string) list -> string -> float -> unit
val observe_a : ?labels:(string * string) list -> string -> float -> unit

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      lower : float;
      growth : float;
      n : int;
      sum : float;
      counts : int array;  (** length buckets + 2: underflow .. overflow *)
    }

type snapshot = ((string * (string * string) list) * value) list
(** Sorted by (name, labels); labels sorted by key. *)

val snapshot : registry -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Pointwise [after - before] for counters and histogram counts/sums;
    gauges keep the [after] value. Entries absent from [before] pass
    through; entries absent from [after] are dropped. *)

val absorb : registry -> snapshot -> unit
(** Add a snapshot's values into a live registry: counters and histogram
    counts/sums accumulate, gauges take the snapshot's value. Absorbing
    per-task snapshots in task order reproduces the sequential outcome
    (exactly for counters, gauges and histogram counts; histogram [sum]s
    can differ in the last floating-point bits because the additions
    associate differently). *)

val find : snapshot -> ?labels:(string * string) list -> string -> value option

val to_text : snapshot -> string
(** One line per metric, sorted; histograms render count/sum/mean. *)

val to_json : snapshot -> Json.t

val quantile : value -> float -> float option
(** Nearest-rank quantile estimate from a [Histogram] value: the
    geometric midpoint of the bucket holding the [ceil (q * n)]-th
    observation (the underflow bucket answers [lower], the overflow
    bucket the top boundary), [q] clamped to [0, 1]. The estimate is off
    by at most a factor of [sqrt growth] — with the default
    [growth = 2.0], within ~41% of the true quantile, which is enough to
    pin a latency band in CI. [None] for empty histograms, counters and
    gauges. *)
