(** Basic integer sets: conjunctions of affine constraints over named
    dimensions, named parameters and anonymous existential variables.

    This is the workhorse of the polyhedral layer. It supports the operations
    the GEMM pipeline needs from isl: constraint construction from
    quasi-affine expression trees ({!Aff}; floor divisions become existential
    variables), Fourier–Motzkin projection, emptiness and implication tests,
    and extraction of loop bounds for AST generation.

    Projection and emptiness are exact over the rationals and use integer
    tightening (gcd normalization of inequalities); like many light-weight
    polyhedral kernels this is a sound over-approximation of integer
    emptiness, which is conservative for dependence analysis and exact for
    the unimodular constraint systems produced by rectangular tiling. *)

type t

val universe : params:string list -> dims:string list -> t
(** The unconstrained set over the given named parameters and dimensions. *)

val params : t -> string array
val dims : t -> string array
val param_var : t -> string -> Lin.var
val add_dims : t -> string list -> t
(** Append fresh named dimensions (names must not collide). *)

val eqs : t -> Lin.t list
val ineqs : t -> Lin.t list

val add_ineq : t -> Lin.t -> t
(** Constrain with [e >= 0]. *)

val add_eq : t -> Lin.t -> t
(** Constrain with [e = 0]. *)

val add_aff_ineq : t -> Aff.t -> t
(** Constrain with [aff >= 0]. *)

val add_aff_eq : t -> Aff.t -> t

val constrain_range : t -> string -> lo:Aff.t -> hi:Aff.t -> t
(** [constrain_range t d ~lo ~hi] adds [lo <= d < hi]. *)

val meet : t -> t -> t
(** Intersection of two sets over the same space (same parameter and
    dimension names, checked); the existential variables of the right-hand
    side are renamed apart. *)

val project_onto : t -> string list -> t
(** Keep only constraints over the named dimensions (and parameters). *)

val is_empty : t -> bool
(** [true] only when the set is provably empty for every parameter value. *)

val implies_aff_ineq : t -> Aff.t -> bool
(** Does every point of the set satisfy [aff >= 0]? (Used to prune redundant
    guards during AST generation.) *)

type bound = { expr : Lin.t; den : int }
(** A lower bound [ceil(expr/den) <= d] or upper bound [d <= floor(expr/den)]
    with [den > 0] and [expr] free of existential variables. *)

val dim_bounds : t -> dim:string -> using:string list -> bound list * bound list
(** [(lowers, uppers)] for dimension [dim], expressed over the parameters and
    the dimensions listed in [using] only. *)

val bound_to_aff : t -> round:[ `Floor | `Ceil ] -> bound -> Aff.t
(** Render a bound as an affine tree ([Fdiv] of the negation for [`Ceil]). *)

val mem : t -> params:(string * int) list -> (string * int) list -> bool
(** Exact integer membership of a fully specified point (existential
    variables are searched exhaustively within their feasible box). *)

val enumerate : t -> params:(string * int) list -> int array list
(** All integer points of a bounded set with parameters fixed, each point an
    array in dimension order. Intended for tests; raises [Invalid_argument]
    when a dimension is unbounded. *)
