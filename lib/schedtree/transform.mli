(** Band transformations: tiling, band splitting, strip-mining and CPE-mesh
    binding — the compute-decomposition machinery of §3 of the paper.

    All functions operate on {!Tree.band} values and validity follows the
    classical results: tiling requires a permutable band, strip-mining is
    always valid (Kelly & Pugh), splitting a band is always valid. *)

val tile : Tree.band -> sizes:int list -> names:string list -> Tree.band * Tree.band
(** [tile b ~sizes ~names] rectangularly tiles every member of [b]:
    the outer (tile) band member for [m] with size [s] schedules
    [floor(e/s)] under the fresh variable from [names]; the inner (point)
    band keeps [m]'s variable with schedule [e - s*floor(e/s)] (Fig. 4a).
    Coincidence flags are inherited by both levels. Raises
    [Invalid_argument] if the band is not permutable, a size is
    non-positive, or list lengths mismatch. *)

val split : Tree.band -> at:int -> Tree.band * Tree.band
(** Split one band into two nested bands, the first holding members
    [0..at-1]. Used to isolate the batch dimension (Fig. 3) and the reduced
    tile loop before strip-mining (Fig. 6). *)

val split_off : Tree.band -> var:string -> Tree.band * Tree.band
(** Isolate the named member into a leading single-member band; the
    remaining members keep their order. Requires permutability unless the
    member is already first. *)

val strip_mine :
  Tree.band -> var:string -> factor:int -> outer:string -> Tree.band * Tree.band
(** [strip_mine b ~var ~factor ~outer] strip-mines the single-member band
    [b] (whose member is [var]): the outer band schedules
    [floor(e/factor)] as [outer], the inner keeps [var] with schedule
    [e - factor*floor(e/factor)] (Fig. 6; always valid). Raises
    [Invalid_argument] when [b] has several members. *)

val bind : Tree.band -> var:string -> Tree.binding -> Tree.band
(** Bind a member to a mesh coordinate (Fig. 4b). Only coincident members
    may be bound. *)
