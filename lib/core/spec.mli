(** Problem specifications accepted by the code generator.

    A specification describes one (optionally batched, optionally fused)
    DGEMM instance [C = alpha * (A x B) + beta * C] with concrete sizes —
    the generator, like the paper's tool, produces code specialized to a
    shape. Shapes that do not meet the decomposition's divisibility
    requirements (M, N multiples of the mesh tile, K of the k-panel; §8.1)
    are zero-padded by {!pad_for}. *)

type fusion =
  | No_fusion
  | Prologue of string
      (** element-wise kernel applied to A before the product (Fig. 12a);
          the paper's example is quantization *)
  | Epilogue of string
      (** element-wise kernel applied to C after the product (Fig. 12b);
          the paper's example is an activation *)

type t = {
  m : int;
  n : int;
  k : int;
  batch : int option;
  alpha : float;
  beta : float;
  ta : bool;  (** use op(A) = A^T: A is stored [k x m] *)
  tb : bool;  (** use op(B) = B^T: B is stored [n x k] *)
  fusion : fusion;
}

val make :
  ?batch:int -> ?alpha:float -> ?beta:float -> ?ta:bool -> ?tb:bool ->
  ?fusion:fusion -> m:int -> n:int -> k:int -> unit -> t
(** Defaults: no batch, [alpha = 1], [beta = 1], no transposes, no fusion.
    [m], [n], [k] are always the logical GEMM extents ([op(A)] is [m x k]).
    Raises [Invalid_argument] on non-positive sizes or unknown fusion
    kernels. *)

val pad_for : t -> Sw_arch.Config.t -> t
(** Round [m], [n] up to the mesh tile ([mesh_rows * mk_m] etc.) and [k] up
    to the k-panel ([mesh_cols * mk_k]), as §8.1 requires ("one can
    manually construct such shapes through zero padding"). *)

val is_aligned : t -> Sw_arch.Config.t -> bool
val flops : t -> int
(** [2 m n k] times the batch size (of this spec's sizes as given). *)

val to_string : t -> string

val fusion_to_string : fusion -> string
(** ["none"], ["prologue:<fn>"] or ["epilogue:<fn>"]: the text form the
    [--fusion] flag and conformance case files use. *)

val fusion_of_string : string -> (fusion, string) result
(** Inverse of {!fusion_to_string}. Any other text is an error. The
    kernel name is not checked here; {!make} rejects unknown kernels. *)

val to_json : t -> Sw_obs.Json.t
(** The wire image [swgemmd] accepts as [params.spec]: integer [m]/[n]/
    [k], optional [batch], [alpha]/[beta] numbers, [ta]/[tb] booleans and
    at most one of [prologue]/[epilogue] naming an element-wise kernel.
    Omitted optional fields take {!make}'s defaults. *)

val of_json : Sw_obs.Json.t -> (t, string) result
(** Inverse of {!to_json} (total: never raises); validates through
    {!make}, so [of_json (to_json t) = Ok t]. *)
