(** Main (DDR) memory of the cluster: named row-major double arrays.

    Arrays are two-dimensional matrices or three-dimensional batched
    matrices; the last dimension is contiguous, matching the [len]/[strip]
    addressing of the DMA interfaces (§4). Whether a run moves data is
    decided here alone: a timing memory records only extents (what
    {!offset} checks against), and {!Cluster} and {!Spm} follow its mode. *)

type t

val create : functional:bool -> t

val functional : t -> bool

val alloc : t -> string -> dims:int list -> unit
(** Allocate an array: zero-initialized in a functional memory, extents
    only in a timing one. Raises [Invalid_argument] on duplicate names or
    dimensionality outside {2, 3}. *)

val data : t -> string -> float array
(** Raises [Invalid_argument] on a timing memory, which holds no data. *)

val dims : t -> string -> int array

val row_len : t -> string -> int
(** Extent of the last (contiguous) dimension. *)

val offset : t -> string -> ?batch:int -> row:int -> col:int -> unit -> int
(** Flat element offset of [(batch,) row, col]; bounds-checked. Raises
    {!Error.Sim_error} ([Bounds]) on an out-of-range or mis-batched
    access. *)
