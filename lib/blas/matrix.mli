(** Dense row-major matrix helpers shared by the reference implementations,
    the test oracles and the benchmark workload generators. *)

type t = { rows : int; cols : int; data : float array }

val create : rows:int -> cols:int -> t
val init : rows:int -> cols:int -> f:(int -> int -> float) -> t
val random : rows:int -> cols:int -> seed:int -> t
(** Deterministic uniform values in [(-1, 1)]. *)

val copy : t -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val max_abs_diff : t -> t -> float
(** Largest absolute element-wise difference; raises on shape mismatch. *)

val transpose : t -> t
val map : (float -> float) -> t -> t
val round_up : int -> multiple:int -> int

val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** Copy out a rectangular region; bounds-checked. *)

val blit_into : src:t -> dst:t -> row:int -> col:int -> unit
(** Copy [src] into [dst] at offset [(row, col)]; bounds-checked. *)
