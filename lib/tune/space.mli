(** The decomposition search space and its analytic pruning (DESIGN.md
    §15.1–§15.2).

    A candidate names one point of the space the tuner searches: an LDM
    (SPM) tile shape for the micro kernel, a strip-mine factor for the
    reduced loop (k-chunks per RMA panel), a buffer count (single,
    double, or triple buffering of the DMA/RMA tiles), and — for fused
    specs — whether the element-wise kernel stays fused on the CPEs or
    runs as a separate MPE pass.

    {!realize} is the static gate: it either maps a candidate to the
    concrete machine model and option set the compiler can execute, with
    a provable upper bound on its useful Gflops, or rejects it with a
    reason (unrealizable strip factor, pipeline depth, SPM overflow,
    kernel generation failure). {!analytic_bound}'s contract is the one
    the soundness property in [test/test_tune.ml] pins: the bound never
    undershoots what the simulator later measures. *)

type candidate = {
  mk : int * int * int;  (** LDM tile = micro-kernel shape [m x n x k] *)
  strip : int;  (** strip-mine factor: k-chunks per RMA panel *)
  buffers : int;  (** 1 = no hiding, 2 = double buffering, 3 = triple *)
  fuse : bool;
      (** keep the element-wise kernel fused on the CPEs; [false] runs
          it as a separate MPE pass (only meaningful for fused specs) *)
}

val key : candidate -> string
(** Stable, zero-padded identity, e.g. ["mk0064x0064x0032/strip08/buf2/
    fused"]. Total order on keys is the deterministic tie-break of the
    whole tuner: winner selection and result listings sort by it, never
    by measurement arrival order. *)

val default : Sw_arch.Config.t -> Sw_core.Spec.t -> candidate
(** The paper's choice on this machine: the config's own micro-kernel
    shape, the [min R C] strip factor, double buffering, fusion kept on
    the CPEs. Always a member of {!enumerate}'s result. *)

val ladder : (int * int * int) list
(** The classic nine-shape micro-kernel ladder every ATLAS-style search
    walks, from 16x16x8 to 128x128x64. *)

val enumerate : config:Sw_arch.Config.t -> spec:Sw_core.Spec.t -> candidate list
(** The full space for this (machine, problem): micro-kernel shapes
    around the config's own plus the classic tuning ladder, strip
    factors {1, min R C, 2 min R C}, buffer counts {1, 2, 3}, and both
    fusion placements when the spec is fused. Sorted by {!key};
    duplicate-free; always contains {!default}. *)

type realized = {
  cfg : Sw_arch.Config.t;
      (** the machine model with the candidate's tile shape and the
          matching micro-kernel efficiency substituted in *)
  options : Sw_core.Options.t;  (** asm + RMA; hiding iff [buffers >= 2] *)
  efficiency : float;  (** fraction of SIMD peak of the candidate's kernel *)
  eff_note : string;  (** where the efficiency came from *)
  bound : float;  (** {!analytic_bound}: useful-Gflops upper bound *)
}

val realize :
  config:Sw_arch.Config.t ->
  spec:Sw_core.Spec.t ->
  candidate ->
  (realized, string) result
(** Static legality + analytic pruning gate; [Error] carries the prune
    reason. *)

val analytic_bound :
  spec:Sw_core.Spec.t -> cfg:Sw_arch.Config.t -> float
(** Upper bound on the useful Gflops (original-problem flops per
    second) any execution of [spec] under [cfg] can reach:
    [min(compute, memory) * useful/padded], where compute is the
    kernel-efficiency-scaled SIMD peak and memory is the data-reuse
    bound [AI * BW] with [AI = mesh_m * mesh_n / (4 (mesh_m + mesh_n))]
    flops/byte — the A/B panel traffic of the §3.2 decomposition,
    ignoring C traffic and every overhead, hence never an
    underestimate. *)
