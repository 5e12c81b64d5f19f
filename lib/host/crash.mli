(** Host-side fault harness: deterministic crash injection.

    The host counterpart of {!Sw_arch.Fault}. Crash-sensitive host code —
    the durable store's write path — calls {!hit} at named sites; an armed plan fires an {!action} at a chosen
    hit count. Nothing armed means every [hit] is a single ref read.

    Sites currently instrumented:
    - [store.put.stage] — payload staged to the temp file, before rename
    - [store.put.commit] — after the atomic rename, before the manifest
      update
    - [store.manifest] — before the manifest's atomic rename

    The environment variable [SWGEMM_CRASH_AT=SITE:N[:kill|:raise]] arms a
    one-trigger plan at load time (default action [Kill]); the CI
    chaos-smoke job uses it to SIGKILL a real process mid-write and then
    restart it. *)

type action =
  | Raise  (** abort the request with {!Crashed}, leaving partial state *)
  | Kill  (** SIGKILL the process: the restart-recovery drill *)

exception Crashed of string
(** Raised by a [Raise] trigger; the payload is the site name. *)

type plan

val plan : (string * int * action) list -> plan
(** [(site, fire_on, action)] triggers; the action fires on the
    [fire_on]-th (1-based) {!hit} of [site]. Raises [Invalid_argument] on
    [fire_on < 1]. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Arm, run, disarm (also on exception). *)

val hit : string -> unit
(** Injection point. No-op unless an armed trigger fires here. *)
