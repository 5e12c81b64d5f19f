(** Reference DGEMM implementations — the oracles every generated kernel is
    validated against, plus the fused and batched reference variants used by
    the experiments of §8.3–§8.4. *)

val gemm :
  alpha:float -> beta:float -> a:Matrix.t -> b:Matrix.t -> c:Matrix.t -> unit
(** [C := alpha * A x B + beta * C] in place; shapes are checked. *)

val gemm_flops : m:int -> n:int -> k:int -> int
(** [2*m*n*k] — the count the paper divides by execution time. *)

val batched :
  alpha:float -> beta:float -> a:Matrix.t array -> b:Matrix.t array ->
  c:Matrix.t array -> unit

val fused_prologue :
  fn:string -> alpha:float -> beta:float ->
  a:Matrix.t -> b:Matrix.t -> c:Matrix.t -> unit
(** [C := alpha * fn(A) x B + beta * C]: the quantization-prologue pattern
    (Fig. 12a); [A] itself is not modified. *)

val fused_epilogue :
  fn:string -> alpha:float -> beta:float ->
  a:Matrix.t -> b:Matrix.t -> c:Matrix.t -> unit
(** [C := fn(alpha * A x B + beta * C)]: the activation-epilogue pattern
    (Fig. 12b). *)
