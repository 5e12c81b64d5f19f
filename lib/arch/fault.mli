(** Seeded, deterministic fault injection for the simulated cluster.

    A fault plan perturbs the asynchronous protocols the generated kernels
    depend on, each kind modelling a failure mode of the real SW26010Pro:

    - {!Jitter}/{!Stall}: DMA/RMA channel bandwidth variation and transient
      memory-controller stalls;
    - {!Delay_reply}/{!Drop_reply}: late or lost reply-counter increments
      (lost athread DMA interrupts); dropped increments are re-delivered
      after a bounded delay, except for a configurable fraction that is
      lost for good;
    - {!Straggler}: chosen CPEs run their micro kernels slower (frequency
      throttling, a noisy neighbour on the mesh);
    - {!Flip}: an element of an SPM tile is corrupted between a write and
      its next read (functional mode only — models an SPM soft error).

    Plans are deterministic: the same [seed] (and spec) perturbs the same
    simulated execution identically, so failures found by the resilience
    property are replayable. *)

type kind = Jitter | Stall | Delay_reply | Drop_reply | Straggler | Flip

val all_kinds : kind list
val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type spec = {
  kinds : kind list;  (** enabled fault kinds *)
  jitter_frac : float;  (** max fractional channel slowdown *)
  stall_prob : float;  (** per-transfer transient stall probability *)
  stall_s : float;
  delay_prob : float;  (** per-reply delayed-increment probability *)
  delay_s : float;  (** max extra delivery delay *)
  drop_prob : float;  (** per-reply dropped-increment probability *)
  drop_permanent_frac : float;  (** fraction of drops never re-delivered *)
  redeliver_s : float;  (** bounded re-delivery latency of a drop *)
  straggler_frac : float;  (** fraction of CPEs that straggle *)
  straggler_slowdown : float;  (** kernel-time factor on stragglers *)
  flip_prob : float;  (** per-tile-write corruption probability *)
  flip_magnitude : float;  (** max absolute perturbation of the element *)
}

val default_spec : spec

val spec_with : kinds:kind list -> spec -> spec
(** Restrict (or extend) the enabled kinds, keeping all rates. *)

type t

val plan : ?spec:spec -> seed:int -> unit -> t
val seed : t -> int

val stats : t -> (kind * int) list
(** Injections actually performed so far, by kind (zero counts omitted). *)

val stats_to_string : t -> string

(** {2 Injection decisions} (drawn by the engine and cluster) *)

type channel_perturb = { stall_s : float; slowdown : float }

val channel_perturb : t -> channel_perturb
(** Per-transfer perturbation: an additive stall and a bandwidth slowdown
    factor [>= 1]. *)

type disposition =
  | Deliver
  | Delay of float  (** deliver the increment late *)
  | Drop of { redeliver_after : float }  (** bounded re-delivery *)
  | Drop_forever  (** lost interrupt: never delivered *)

val reply_disposition : t -> disposition

val kernel_slowdown : t -> rid:int -> cid:int -> float

val flip : t -> elems:int -> (int * float) option
(** [Some (index, delta)] to corrupt one element of a just-written tile. *)
