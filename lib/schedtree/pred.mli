(** Affine predicates used by filter nodes.

    Loop peeling (§6.2 of the paper) isolates the first and last iterations
    of the pipelined loops by filtering on conditions such as
    [floor(k/256) = 0] or [0 <= l < 7]; these conditions are conjunctions of
    comparisons between quasi-affine expressions. *)

open Sw_poly

type rel = Eq | Le | Lt | Ge | Gt

type t = { lhs : Aff.t; rel : rel; rhs : Aff.t }

val eq : Aff.t -> Aff.t -> t
val le : Aff.t -> Aff.t -> t
val ge : Aff.t -> Aff.t -> t
val eval : vars:(string -> int) -> params:(string -> int) -> t -> bool

val lower :
  vars:(string -> Aff.leaf) -> params:(string -> Aff.leaf) -> t ->
  int array -> bool
(** Compile a predicate once into an evaluator over int slots (see
    {!Sw_poly.Aff.lower}); it agrees with {!eval}. *)

val to_ineqs : t -> Aff.t list
(** The predicate as a conjunction of expressions constrained to be [>= 0]
    (an equality contributes two). *)

val subst : (string * Aff.t) list -> t -> t
val to_string : t -> string
