(** Execution traces of simulated runs.

    When a trace sink is attached to the cluster, every primitive records
    its time interval: kernel invocations, DMA and RMA transfers (as seen
    by the issuing/sending CPE), SPM element-wise passes, and the blocked
    intervals spent in reply waits and barriers. The analysis functions
    quantify exactly the effect §6 of the paper is about: how much
    communication latency is exposed on the critical path versus hidden
    behind computation. *)

type kind =
  | Kernel
  | Spm_op  (** element-wise pass *)
  | Dma of { bytes : int; put : bool }
  | Rma of { bytes : int; sender : bool }
  | Wait_reply of { reply : string; rma : bool }
      (** [reply] is the counter name; [rma] tells whether the reply was
          armed by an RMA broadcast (else a DMA transfer) — the profiler
          uses it to attribute exposed latency to a pipeline level. *)
  | Barrier

type event = { rid : int; cid : int; kind : kind; start : float; finish : float }

type t

val create : ?sink:(event -> unit) -> unit -> t
(** With [sink], each event is handed to it as it is recorded instead of
    being kept ({!events} stays empty), so a consumer that folds the
    stream, such as a digest of it, runs in flat memory however long the
    run. *)

val record : t -> event -> unit

val events : t -> event list
(** In recording order. *)

val instant : event -> bool
(** [true] for zero-duration events (e.g. a wait satisfied at issue).
    They are recorded — dropping them would hide exactly the instants a
    forensic timeline needs — but excluded from busy-time accounting by
    construction (their interval is empty). *)

val busy : t -> rid:int -> cid:int -> kind:(kind -> bool) -> float
(** Total time one CPE spent in events matching the predicate. *)

type utilization = {
  span : float;  (** first start to last finish *)
  kernel_frac : float;  (** mean over CPEs of kernel busy / span *)
  blocked_frac : float;  (** mean fraction spent blocked (waits + barriers) *)
  dma_bytes : int;
  rma_bytes : int;
}

val utilization : t -> mesh:int * int -> utilization
(** An empty trace — or one holding only zero-duration instants — has no
    span; the result is then all zeros rather than a division by zero. *)

val gantt : t -> rid:int -> cid:int -> width:int -> string
(** ASCII lane of one CPE's activity: [K] kernel, [D] DMA wait-side,
    [R] RMA, [w] blocked, [.] idle. Intended for small runs. *)

val summary : t -> mesh:int * int -> string
