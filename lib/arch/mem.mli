(** Main (DDR) memory of the cluster: named row-major double arrays.

    Arrays are two-dimensional matrices or three-dimensional batched
    matrices; the last dimension is contiguous, matching the [len]/[strip]
    addressing of the DMA interfaces (§4). *)

type t

type array_info = { dims : int array; data : float array }

val create : unit -> t

val alloc : t -> string -> dims:int list -> unit
(** Allocate a zero-initialized array. Raises [Invalid_argument] on
    duplicate names or dimensionality outside {2, 3}. *)

val alloc_init : t -> string -> dims:int list -> f:(int array -> float) -> unit
(** Allocate and initialize element-wise from the index vector. *)

val data : t -> string -> float array
val dims : t -> string -> int array

val row_len : t -> string -> int
(** Extent of the last (contiguous) dimension. *)

val offset : t -> string -> ?batch:int -> row:int -> col:int -> unit -> int
(** Flat element offset of [(batch,) row, col]; bounds-checked. Raises
    {!Error.Sim_error} ([Bounds]) on an out-of-range or mis-batched
    access. *)
