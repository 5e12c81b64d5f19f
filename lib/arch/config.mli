(** Machine model of one SW26010Pro cluster (core group), and the only
    description of a machine in the system: the simulator, cost model,
    passes, tuner and multi-cluster model all read this flat record, the
    named presets are values of it, and [--arch-file] loads it from JSON.

    The paper reports percentages of an undisclosed theoretical peak; every
    absolute constant below is therefore a calibration, chosen once so that
    the simulator reproduces the paper's published ratios (the §8.1
    breakdown means, the §8.2 peak fractions, the batched/fusion speedups)
    and then frozen. [test/test_calibration.ml] asserts the model stays
    inside the documented bands. See DESIGN.md §4 and §12. *)

type t = {
  name : string;
  mesh_rows : int;  (** 8 on SW26010Pro *)
  mesh_cols : int;
      (** 8 on SW26010Pro; rectangular meshes are accepted — the K panel is
          split into [min rows cols] chunks and the row/column RMA
          broadcasts root at mesh coordinates below that bound *)
  spm_bytes : int;  (** 256 KiB per CPE on SW26010Pro (§2.1) *)
  cpe_freq_hz : float;
  cpe_simd_flops_per_cycle : float;
      (** double-precision flops/cycle of the 512-bit FMA pipeline *)
  cpe_naive_flops_per_cycle : float;
      (** scalar, unpipelined flops/cycle of compiler-generated loop code *)
  micro_kernel_efficiency : float;
      (** fraction of SIMD peak the vendor assembly kernel sustains *)
  kernel_call_overhead_s : float;
      (** per-invocation cost: call, loop control, pipeline ramp *)
  mem_bw_bytes_per_s : float;
      (** shared memory-controller bandwidth of the cluster *)
  dma_latency_s : float;  (** fixed per-message DMA latency *)
  rma_bw_bytes_per_s : float;  (** per row/column RMA link *)
  rma_latency_s : float;
  sync_latency_s : float;  (** full-mesh barrier *)
  mesh_startup_s : float;  (** athread_spawn cost, paid per mesh launch *)
  ew_cpe_cycles_per_elem : float;
      (** vectorized element-wise op cost on a CPE (fused prologue/epilogue) *)
  mpe_stream_bw_bytes_per_s : float;
      (** MPE effective streaming bandwidth (baseline element-wise passes) *)
  mpe_freq_hz : float;
  mpe_ew_cycles_per_elem : (string * float) list;
      (** per element-wise kernel: scalar MPE cycles per element *)
  mk_m : int;  (** micro kernel shape, 64 x 64 x 32 on SW26010Pro (§7.2) *)
  mk_n : int;
  mk_k : int;
  noc_link_bw_bytes_per_s : float;
      (** network-on-chip link from the home memory to one cluster *)
  noc_src_bw_bytes_per_s : float;
      (** aggregate injection bandwidth of the home memory *)
  noc_latency_s : float;  (** per-panel network-on-chip latency *)
}

val sw26010pro : t
(** The calibrated SW26010Pro model. *)

val tiny : ?mesh:int -> ?cols:int -> ?mk:int * int * int -> unit -> t
(** A scaled-down configuration for fast functional tests: [mesh x cols]
    CPEs (default 2x2; [cols] defaults to [mesh]) and a small micro kernel
    (default 4x4x2). Timing constants are inherited from {!sw26010pro}. *)

val peak_flops_per_s : t -> float
(** Cluster SIMD peak: [rows * cols * freq * simd_flops_per_cycle]. *)

val peak_gflops : t -> float

val micro_kernel_seconds : t -> style:[ `Asm | `Naive ] -> m:int -> n:int -> k:int -> float
(** Wall time of one micro-kernel invocation on one CPE. *)

val mpe_gemm_seconds : t -> m:int -> n:int -> k:int -> float
(** Cost of running the whole GEMM on the management core: the
    graceful-degradation path when mesh-side recovery is exhausted. Max of
    scalar-FMA compute time and streaming time. *)

val mpe_ew_seconds : t -> fn:string -> elems:int -> float
(** Baseline cost of an element-wise pass over [elems] doubles on the MPE:
    the max of the streaming time (read + write) and the scalar compute
    time. *)

(** {2 Validation} *)

type error =
  | Empty_mesh of { rows : int; cols : int }
  | Empty_micro_kernel of { m : int; n : int; k : int }
  | Non_positive_rate of string * float
      (** JSON field path (e.g. ["rma.bw_bytes_per_s"]) and offending value *)
  | Efficiency_out_of_range of float
  | Spm_overflow of { needed_bytes : int; spm_bytes : int }
      (** the nine §6.3 buffers do not fit *)

val error_to_string : error -> string

val validate : t -> (unit, error) result
(** Reject meaningless models: an empty mesh or micro kernel, a
    non-positive frequency, flop rate, cycle count or bandwidth, a
    micro-kernel efficiency outside (0, 1], or micro-kernel tiles that
    overflow the SPM with double buffering. Rectangular meshes are
    valid. *)

val spm_needed_bytes : t -> int
(** Bytes of the nine double-buffered §6.3 SPM buffers of the micro
    kernel: C plus two copies each of the A and B DMA and broadcast
    tiles. *)

(** {2 Presets} *)

val all : t list
(** Canonical presets: [sw26010pro] and its 4x4 / 8x4 / 16x16 mesh
    variants, plus the tiny family ([tiny2], [tiny2-deep], [tiny4],
    [tiny-8x8], [tiny-8x4], [tiny-16x16]) used by tests and the
    conformance fuzzer. Every preset validates. *)

val find : string -> t option
(** Look up a preset by name. Accepts the [tiny-RxC] spellings of the
    legacy names ([tiny-2x2] = [tiny2], [tiny-4x4] = [tiny4]). *)

val names : unit -> string list
(** Canonical preset names, registry order. *)

(** {2 JSON} *)

val to_json : t -> Sw_obs.Json.t
(** The nested [--arch-file] format: [mesh], [cpe], [micro_kernel],
    [dma], [rma], [mpe] and [noc] objects beside the top-level [name],
    [spm_bytes], [sync_latency_s] and [mesh_startup_s]. *)

val of_json : Sw_obs.Json.t -> (t, string) result
(** Strict inverse of {!to_json}: missing or unknown fields are errors,
    and [of_json (to_json c) = Ok c] for every config without nan/inf
    rates. *)

val load_file : string -> (t, string) result
(** Parse a config from a JSON file and validate it. *)
