(** Typed errors of the simulated cluster.

    Every failure mode of a simulated run — deadlock, double-buffering
    race, out-of-bounds DMA, SPM overflow, exhausted fault recovery,
    watchdog expiry — is a constructor of {!t} carrying structured
    forensics, so harnesses (the resilience property, the CLI, CI) can
    match on the cause instead of parsing strings. Simulation code raises
    {!Sim_error}; [Interp.run] catches it at its boundary and returns the
    value. *)

type conflict = {
  buffer : string;
  copy : int;
  kind : [ `Write_read | `Write_write | `Read_write ];
      (** the offending operation, then the earlier overlapping one *)
  op_start : float;
  op_finish : float;
  prev_start : float;
  prev_finish : float;
}
(** One double-buffering violation on one SPM buffer copy. *)

type race = { rid : int; cid : int; conflict : conflict }
(** A conflict located on a CPE of the mesh. *)

type blocked = {
  fiber : string;  (** label of the parked fiber, e.g. ["CPE(2,3)"] *)
  counter : string;  (** reply counter or barrier it is parked on *)
  current : int;  (** the counter's value at quiescence *)
  awaited : int;  (** the value the fiber is waiting for *)
  parked_at : float;  (** simulated time at which it blocked *)
}

type diagnosis = {
  sim_time : float;  (** clock when the event queue drained *)
  events_run : int;
  fibers : blocked list;  (** every fiber still parked, sorted *)
}
(** Quiescence report produced when the event queue drains with fibers
    still parked: who is blocked, on which counter, current vs awaited
    value, and when each fiber parked. *)

type t =
  | Deadlock of diagnosis
  | Race of race list  (** all detected races, deterministically sorted *)
  | Bounds of { array_name : string; detail : string }
  | Overflow of { buffer : string; needed : int; available : int; capacity : int }
  | Fault_exhausted of {
      fiber : string;
      counter : string;
      retries : int;
      sim_time : float;
    }  (** the bounded retry policy gave up on a timed-out wait *)
  | Watchdog of {
      limit : [ `Sim_time of float | `Events of int | `Host_time of float ];
      sim_time : float;
      events_run : int;
    }  (** a runaway simulation was terminated by a budget *)
  | Invalid of string  (** malformed program or protocol misuse *)
  | Timeout of { stage : string; elapsed_s : float; deadline_s : float }
      (** a supervised request ran past its deadline; [stage] names the
          checkpoint that noticed ([admission], [pass:<name>], [store.put],
          ...) *)
  | Overloaded of { in_flight : int; queued : int; limit : int }
      (** admission control shed the request: the in-flight limit was
          reached and the wait queue was full *)
  | Store_corrupt of { key : string; path : string; detail : string }
      (** a persistent-store entry failed its integrity check and was
          quarantined (it is never served) *)
  | Circuit_open of {
      shape_class : string;
      failures : int;
      cooldown_s : float;
    }
      (** the per-shape-class circuit breaker is open after repeated
          failures; requests are rejected (or served degraded) until the
          cooldown elapses *)

exception Sim_error of t

val class_of : t -> string
(** Stable lowercase token naming the variant ([deadlock], [race],
    [bounds], [overflow], [fault_exhausted], [watchdog], [invalid],
    [timeout], [overloaded], [store_corrupt], [circuit_open]). The token
    appears verbatim in the {!to_string} rendering of the same value, so
    logs stay greppable by class. *)

val retryable : t -> bool
(** Whether a fresh attempt could plausibly succeed: transient classes
    ([Fault_exhausted], [Watchdog], [Store_corrupt]) are retryable;
    structural failures and supervisor verdicts are not. *)

val to_string : t -> string
val conflict_to_string : conflict -> string
val race_to_string : race -> string
val blocked_to_string : blocked -> string
val diagnosis_to_string : diagnosis -> string

val compare_race : race -> race -> int
(** Deterministic order: CPE coordinates, then buffer/copy, then time. *)
