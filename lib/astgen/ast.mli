(** Abstract syntax trees produced from schedule trees (§7.1).

    The AST is SPMD code executed by every CPE of the mesh: the mesh
    coordinates appear as the reserved parameters [Rid] and [Cid]. Loop
    bounds are kept as lists of affine expressions with max/min semantics
    (the standard isl-style encoding of multiple bounds); communication and
    kernel operations are the structured {!Sw_tree.Comm} payloads, which is
    the "new AST node type to handle DMA and RMA" the paper introduces. *)

open Sw_poly
open Sw_tree

type stmt =
  | For of { var : string; lbs : Aff.t list; ubs : Aff.t list; body : block }
      (** iterate [var] from [max lbs] to [min ubs] inclusive *)
  | Let of { var : string; value : Aff.t; body : block }
      (** degenerate loop or mesh-bound variable *)
  | If of { conds : Pred.t list; body : block }
  | Op of Comm.t
  | User of { name : string; args : (string * Aff.t) list }
      (** a statement instance; [args] give each iterator's value as an
          affine expression over the enclosing loop variables *)
  | Comment of string

and block = stmt list

type spm_decl = {
  buf_name : string;
  rows : int;
  cols : int;
  copies : int;  (** > 1 for double buffering *)
}

type array_decl = { array_name : string; dims : int list (** extents *) }

type program = {
  prog_name : string;
  params : (string * int) list;  (** problem sizes, fixed at generation *)
  arrays : array_decl list;  (** main-memory arrays *)
  spm_decls : spm_decl list;  (** per-CPE SPM buffers *)
  replies : string list;  (** reply counters (each allocated in pairs) *)
  body : block;  (** SPMD CPE code *)
}

val spm_bytes : program -> int
(** Total SPM bytes required per CPE (8-byte doubles). *)

val free_params : program -> string list
(** Parameter names referenced by the body (excluding [Rid]/[Cid]). *)

val to_string : block -> string
(** Indented pseudo-C rendering (used in dumps and golden tests). *)
