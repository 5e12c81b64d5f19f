(** Admission control for host-side requests.

    At most [max_in_flight] requests run at once, up to [max_queued] more
    wait for a slot, and the rest are shed with a typed
    {!Sw_arch.Error.Overloaded} before any work starts. A queued request
    sleeps until {!release} frees a slot.

    That is the whole envelope. The generator is a deterministic function
    of spec, options and machine model, so a request that fails once
    fails the same way every time: there is nothing to retry and no
    streak of transient faults to break. The one request deadline is the
    compile pipeline's own clock ([Session.create ?deadline]). *)

type policy = {
  max_in_flight : int;  (** concurrent admitted requests, >= 1 *)
  max_queued : int;  (** waiting requests beyond that before shedding *)
}

val default_policy : policy
(** 64 in flight, 256 queued. *)

type t

val create : ?policy:policy -> unit -> t
(** Raises [Invalid_argument] on a nonsensical policy. *)

val run :
  t -> (unit -> ('a, Sw_arch.Error.t) result) -> ('a, Sw_arch.Error.t) result
(** Admit (waiting while queued), run the work once, release the slot on
    any exit. [Error (Overloaded _)] when every slot and queue place is
    taken; the work is not called then. *)

(** {1 Introspection (tests)} *)

val admit : t -> (unit, Sw_arch.Error.t) result
(** {!run}'s admission step: every [Ok] must be paired with one
    {!release}. *)

val release : t -> unit
val in_flight : t -> int
