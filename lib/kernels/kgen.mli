(** Automatic micro-kernel generation — the paper's stated future work
    ("we intend to automate the generation of the inline assembly in the
    future, which is also achievable through compilation approaches
    [Su et al., CGO'17]", §10).

    Given a tile shape [m x n x k], the generator produces a register-level
    vector program for one CPE: 512-bit vector loads/stores, scalar
    broadcasts of A elements and fused multiply-adds, under an explicit
    register budget (32 vector registers on the CPE). The register blocking
    [mr x nrv] is chosen to maximize the FMA-to-memory-operation ratio —
    the same criterion behind the vendor kernel's shape configuration.

    Two consumers:
    - a functional interpreter ({!run}) validated against
      {!Micro.dgemm_tile}, so generated kernels are provably correct;
    - a dual-issue cycle model ({!estimated_efficiency}) that predicts the
      fraction of SIMD peak a generated kernel sustains — used by the
      ablation benches to quantify the gap to the hand-written vendor
      routine, and enabling the smaller kernel shapes the fusion patterns
      of §7.3 call for. *)

type instr =
  | Ldc of { dst : int; off : int }  (** vector load from the C tile *)
  | Stc of { src : int; off : int }  (** vector store to the C tile *)
  | Lda_bcast of { dst : int; off : int }
      (** broadcast the scalar A element (times alpha) to all lanes *)
  | Ldb of { dst : int; off : int }  (** vector load from the B tile *)
  | Fma of { acc : int; a : int; b : int }  (** acc += a * b, per lane *)

type t = {
  m : int;
  n : int;
  k : int;
  lanes : int;  (** doubles per vector register (8 for 512-bit) *)
  mr : int;  (** register-block rows *)
  nrv : int;  (** register-block columns, in vectors *)
  nregs : int;  (** register budget *)
  body : instr array Lazy.t;
      (** the fully unrolled kernel, built when {!run}, {!validate} or
          {!register_pressure} first interprets it *)
}

val generate :
  ?lanes:int -> ?nregs:int -> m:int -> n:int -> k:int -> unit ->
  (t, string) result
(** Defaults: [lanes = 8], [nregs = 32]. Fails when [n] is not a multiple
    of the vector width or a dimension is non-positive. *)

val counts : t -> int * int
(** [(fma, memory)] instruction counts of the unrolled body, in closed
    form from the register blocking (the body is not built):
    [fma = m*nv*k] and [memory = 2*m*nv + k*(ceil(m/mr)*nv +
    ceil(nv/nrv)*m)], with [nv = n / lanes]. *)

val register_pressure : t -> int
(** Highest register index used plus one; always within the budget. *)

val validate : t -> (unit, string) result
(** Checks the budget and that no register is read before being written. *)

val run :
  t -> alpha:float -> accumulate:bool ->
  a:float array -> b:float array -> c:float array -> unit
(** Interpret the kernel on row-major contiguous tiles (the SPM layout the
    compiler guarantees). *)

val estimated_efficiency : t -> float
(** [2*m*n*k / (cycles * flops_per_cycle)] with [flops_per_cycle = 2 *
    lanes]: the fraction of SIMD peak. [cycles] is a dual-issue in-order
    model: per cycle, one FMA and one memory/broadcast operation can
    retire; the C tile's loads/stores and the loop ramp are exposed.
    Computed from {!counts}, so pricing a kernel never builds its body. *)
