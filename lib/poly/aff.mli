(** Quasi-affine expression trees.

    These are the expressions carried by schedule-tree bands, access
    relations and filter conditions: integer linear combinations of named
    iterators and parameters, extended with floor division and modulo by a
    positive integer constant — exactly the fragment the paper's schedule
    trees use (e.g. [floor(i/64)], [i - 64*floor(i/64)]).

    Smart constructors perform light algebraic simplification so that the
    printed form of generated code stays readable. *)

type t =
  | Const of int
  | Var of string  (** a statement iterator or generated loop variable *)
  | Param of string  (** a symbolic size such as [M], [N], [K] or [B] *)
  | Add of t * t
  | Sub of t * t
  | Mul of int * t
  | Fdiv of t * int  (** [Fdiv (e, d)] is [floor (e / d)], [d > 0] *)
  | Mod of t * int  (** [Mod (e, d)] is [e - d * floor (e / d)], [d > 0] *)

val const : int -> t
val var : string -> t
val param : string -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : int -> t -> t
val neg : t -> t
val fdiv : t -> int -> t
val fmod : t -> int -> t
val sum : t list -> t

val equal : t -> t -> bool

val subst : (string * t) list -> t -> t
(** Substitute variables (not parameters) by expressions. *)

val free_vars : t -> string list
(** Variable names occurring in the expression, sorted, without duplicates. *)

val free_params : t -> string list

val eval : vars:(string -> int) -> params:(string -> int) -> t -> int
(** Evaluate with mathematical floor semantics for [Fdiv]/[Mod]. *)

(** How {!lower} resolves a name, once, when it lowers an expression. *)
type leaf =
  | Slot of int  (** read [env.(i)] of the environment passed at evaluation *)
  | Value of int  (** a value fixed at lowering time *)
  | Dynamic of (int array -> int)
      (** computed at evaluation; a name that cannot be resolved lowers to
          a [Dynamic] that raises, so the error surfaces only when (and
          if) the expression is evaluated *)

val lower :
  vars:(string -> leaf) -> params:(string -> leaf) -> t -> int array -> int
(** Compile an expression into an evaluator over an environment of int
    slots: [lower ~vars ~params e] resolves every name once, folds
    constants, and returns a closure that agrees with {!eval} (same
    floor semantics, same operand order, so a raising [Dynamic] leaf is
    reached exactly when [eval] would call for its name). *)

val to_string : t -> string
(** Human-readable rendering, e.g. ["i - 64*floord(i, 64)"]. *)

val to_c : t -> string
(** C rendering using the [floord]/[mod] helper macros emitted in headers. *)
