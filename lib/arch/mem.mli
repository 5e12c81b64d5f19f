(** Main (DDR) memory of the cluster: named row-major double arrays.

    Arrays are two-dimensional matrices or three-dimensional batched
    matrices; the last dimension is contiguous, matching the [len]/[strip]
    addressing of the DMA interfaces (§4). Whether a run moves data is
    decided here alone: a timing memory records only extents (what
    {!offset} checks against), and {!Cluster} and {!Spm} follow its mode. *)

type t

type handle = private {
  name : string;
  dims : int array;
  data : float array;  (** [[||]] in a timing memory *)
}
(** One allocated array, resolved once by {!handle} so that the simulator
    addresses it without a lookup by name. *)

val create : functional:bool -> t

val functional : t -> bool

val alloc : t -> string -> dims:int list -> unit
(** Allocate an array: zero-initialized in a functional memory, extents
    only in a timing one. Raises [Invalid_argument] on duplicate names or
    dimensionality outside {2, 3}. *)

val handle : t -> string -> handle option

val data : t -> string -> float array
(** Raises [Invalid_argument] on a timing memory, which holds no data. *)

val dims : t -> string -> int array

val offset : handle -> batched:bool -> batch:int -> row:int -> col:int -> int
(** Flat element offset of [(batch,) row, col]; [batch] is read only when
    [batched]. Raises {!Error.Sim_error} ([Bounds]) on an out-of-range or
    mis-batched access. *)
