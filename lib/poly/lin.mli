(** Flat integer linear expressions over the variables of a basic set.

    A linear expression is a finite integer combination of variables plus an
    integer constant. These are the building blocks of the constraints stored
    in {!Bset}; structured (tree-shaped) affine expressions with floor
    divisions live in {!Aff} and are linearized into this representation. *)

type var =
  | P of int  (** parameter, by index into the space's parameter list *)
  | D of int  (** set dimension, by index into the space's dimension list *)
  | X of int  (** existentially quantified variable (e.g. a floor-div) *)

type t
(** A linear expression. Terms are kept sorted by variable with non-zero
    coefficients only, so structural equality is semantic equality. *)

val const : int -> t
val var : ?coeff:int -> var -> t
val of_terms : (var * int) list -> int -> t
val terms : t -> (var * int) list
val constant : t -> int
val coeff : t -> var -> int
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t
val is_const : t -> bool
val mentions : t -> var -> bool

val subst : t -> var -> t -> t
(** [subst e v r] replaces variable [v] (which must have been given with
    coefficient understood as 1 in [r]'s defining equation) by the linear
    expression [r]. *)

val content : t -> int
(** Gcd of all coefficients (not the constant); 0 for constant expressions. *)

val divide_exact : t -> int -> t
(** Divide every coefficient and the constant by [d]; raises
    [Invalid_argument] if any is not divisible. *)

val equal : t -> t -> bool
val eval : t -> (var -> int) -> int
