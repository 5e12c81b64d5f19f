(** GEMV code generation — the related-work claim of the paper ("the
    strategy used for optimizing GEMM can be easily adopted to subprograms
    like general matrix-vector multiplication", §9) made concrete.

    [y := alpha * op(A) x + beta * y] is decomposed as follows:

    - rows of A are tiled by the micro-kernel height and distributed
      cyclically over the whole 8x8 mesh (both coordinates bound, i.e. the
      row-tile index is strip-mined twice);
    - the x vector is processed in panels sized like the GEMM k-panel; one
      CPE fetches each panel from main memory and shares it with the whole
      mesh using the {e all-broadcast} of Fig. 8c, which — exactly as the
      paper describes its hardware implementation — is composed of a row
      broadcast followed by column broadcasts;
    - each CPE multiplies its A row-panel against the shared x panel with
      the micro kernel degenerated to one output column.

    GEMV is memory-bound (0.25 flops/byte on A), so unlike GEMM the
    simulated performance saturates at the memory-controller bandwidth
    rather than near compute peak — the model shows this honestly. *)

type spec = { vm : int; vn : int; valpha : float; vbeta : float }

val make_spec : ?alpha:float -> ?beta:float -> m:int -> n:int -> unit -> spec

type compiled = {
  spec : spec;  (** padded *)
  original : spec;
  config : Sw_arch.Config.t;
  tree : Sw_tree.Tree.t;
  program : Sw_ast.Ast.program;
}

exception Gemv_error of string

val compile : config:Sw_arch.Config.t -> spec -> compiled
(** Pads [m] to the full row-distribution tile and [n] to the x panel. *)

val verify : ?seed:int -> compiled -> (unit, string) result
(** Functional {!Runner.simulate} run on the simulated cluster, checked
    with {!Runner.first_mismatch} against {!Runner.reference} of the
    equivalent [m x 1 x n] GEMM. *)

val measure : compiled -> Runner.perf
(** Exact timing-only {!Runner.simulate} run (GEMV problems are small
    enough). Raises {!Gemv_error} on a simulator failure. *)
