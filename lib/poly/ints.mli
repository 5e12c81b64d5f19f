(** Small integer helpers used throughout the polyhedral layer.

    All divisions here are the mathematical (round-toward-negative-infinity)
    variants, which is what polyhedral code generation needs; OCaml's built-in
    [/] truncates toward zero instead. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val fdiv : int -> int -> int
(** [fdiv a b] is [floor (a / b)] for [b > 0] or [b < 0]; raises
    [Division_by_zero] on [b = 0]. *)

val cdiv : int -> int -> int
(** [cdiv a b] is [ceil (a / b)]. *)

val fmod : int -> int -> int
(** [fmod a b = a - b * fdiv a b]; always in [\[0, |b|)] for [b > 0]. *)

val pow2 : int -> bool
(** [pow2 n] is [true] iff [n] is a positive power of two. *)
