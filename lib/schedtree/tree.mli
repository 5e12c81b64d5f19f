(** Schedule trees, the internal representation of the polyhedral model the
    paper's transformations operate on (§2.2, Figs 2–12).

    Differences from isl's schedule trees, chosen for clarity rather than
    generality:

    - band members carry an explicit loop-variable name ([var]); statement
      schedules are affine expressions over the statement's own iterators,
      and filters/extension payloads are written over the named loop
      variables, which keeps every figure of the paper directly
      representable and printable;
    - a band member can be {e bound} to a CPE-mesh coordinate ([Rid]/[Cid],
      Fig. 4b): the member then contributes no loop and its variable is
      fixed to the mesh parameter;
    - extension nodes declare named auxiliary statements with structured
      {!Comm} payloads; sequence filters then schedule those names exactly
      as in Figs 9 and 11. *)

open Sw_poly

type binding = Unbound | Bind_rid | Bind_cid

type member = {
  var : string;  (** name of the generated loop variable *)
  exprs : (string * Aff.t) list;
      (** per real statement: schedule expression over its iterators *)
  coincident : bool;
  bind : binding;
}

type band = { members : member list; permutable : bool }

type filter = { stmts : string list; preds : Pred.t list }
(** Selects the statement instances whose name is in [stmts] and whose
    enclosing loop variables satisfy [preds]. *)

type ext = { ext_name : string; comm : Comm.t }

type t =
  | Domain of Stmt.t list * t
  | Band of band * t
  | Sequence of (filter * t) list
  | Filter of filter * t
  | Extension of ext list * t
      (** declares auxiliary statements available in the subtree *)
  | Mark of string * t
  | Leaf

(* Constructors *)

val domain : Stmt.t list -> t -> t
val band : ?permutable:bool -> member list -> t -> t
val member :
  ?coincident:bool -> ?bind:binding -> string -> (string * Aff.t) list -> member
val sequence : (filter * t) list -> t
val filter : ?preds:Pred.t list -> string list -> filter
val extension : ext list -> t -> t
val mark : string -> t -> t
val leaf : t

val initial : Stmt.t list -> t
(** The initial schedule tree of a loop nest (Fig. 2b): domain node over a
    single identity band whose coincident flags are computed by dependence
    analysis ({!Sw_poly.Dep}). For several statements the band covers the
    shared outer iterators. *)

(* Accessors and traversal *)

val exts : t -> ext list
(** All auxiliary statements declared anywhere in the tree. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every node (sequence branches included). *)

type stats = {
  nodes : int;  (** total node count, sequence branches included *)
  depth : int;  (** longest root-to-leaf path, in nodes *)
  bands : int;
  band_members : int;
  sequences : int;
  filters : int;  (** filter nodes plus sequence-branch filters *)
  extensions : int;
  ext_stmts : int;  (** auxiliary statements declared by extension nodes *)
  marks : int;
  leaves : int;
}
(** Size/shape statistics of a schedule tree, the per-pass instrumentation
    reported by the pass manager ([--pass-stats]). *)

val stats : t -> stats

val validate : t -> (unit, string) result
(** Structural sanity: domain at root only, unique loop variables, band
    expressions given for every domain statement, filters referencing known
    statement names, marks non-empty. *)

val to_string : t -> string
(** Multi-line rendering in the style of the paper's figures:
    {v
DOMAIN: S1(i, j, k)
  BAND: [i; j; k] coincident=[1;1;0] permutable
    LEAF
    v} *)
