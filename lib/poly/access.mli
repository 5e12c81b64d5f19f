(** Array access relations.

    An access couples an array name with one quasi-affine index expression
    per array dimension, written over the iterators of the enclosing
    statement (e.g. [A\[i\]\[k\]] inside the GEMM statement [S1(i,j,k)]). *)

type kind = Read | Write

type t = { array : string; indices : Aff.t list; kind : kind }

val read : string -> Aff.t list -> t
val write : string -> Aff.t list -> t
val is_write : t -> bool

val to_string : t -> string
(** e.g. ["A[i][k] (read)"]. *)

val footprint_bounds :
  domain:Bset.t -> context_dims:string list -> t ->
  (Aff.t list * Aff.t list) list
(** [footprint_bounds ~domain ~context_dims acc] computes, for each array
    dimension of the access, the affine lower and upper bounds (inclusive)
    of the indices touched by all statement instances in [domain], expressed
    over the parameters and the dimensions listed in [context_dims]
    (typically the tile coordinates). The true footprint interval is
    [\[max lowers, min uppers\]]; redundant bounds are pruned when the
    rational implication test can discharge them, but bounds that are only
    comparable under divisibility assumptions (e.g. a tile bound vs. the
    array extent) are both kept and the caller selects — exactly the
    situation the paper resolves by requiring padded sizes. This is the
    rectangular-hull computation used to size SPM buffers and derive DMA
    transfer arguments (§4 of the paper). Raises [Invalid_argument] when a
    dimension of the footprint is unbounded. *)
