type t = {
  name : string;
  mesh_rows : int;
  mesh_cols : int;
  spm_bytes : int;
  cpe_freq_hz : float;
  cpe_simd_flops_per_cycle : float;
  cpe_naive_flops_per_cycle : float;
  micro_kernel_efficiency : float;
  kernel_call_overhead_s : float;
  mem_bw_bytes_per_s : float;
  dma_latency_s : float;
  rma_bw_bytes_per_s : float;
  rma_latency_s : float;
  sync_latency_s : float;
  mesh_startup_s : float;
  ew_cpe_cycles_per_elem : float;
  mpe_stream_bw_bytes_per_s : float;
  mpe_freq_hz : float;
  mpe_ew_cycles_per_elem : (string * float) list;
  mk_m : int;
  mk_n : int;
  mk_k : int;
}

let sw26010pro =
  {
    name = "SW26010Pro";
    mesh_rows = 8;
    mesh_cols = 8;
    spm_bytes = 256 * 1024;
    (* 64 CPEs x 2.22 GHz x 16 double flops/cycle = 2273.28 Gflops peak *)
    cpe_freq_hz = 2.22e9;
    cpe_simd_flops_per_cycle = 16.0;
    cpe_naive_flops_per_cycle = 0.60;
    micro_kernel_efficiency = 0.98;
    kernel_call_overhead_s = 0.08e-6;
    mem_bw_bytes_per_s = 34.0e9;
    dma_latency_s = 1.5e-6;
    rma_bw_bytes_per_s = 80.0e9;
    rma_latency_s = 0.1e-6;
    sync_latency_s = 0.10e-6;
    mesh_startup_s = 120.0e-6;
    ew_cpe_cycles_per_elem = 1.0;
    mpe_stream_bw_bytes_per_s = 8.0e9;
    mpe_freq_hz = 2.1e9;
    mpe_ew_cycles_per_elem =
      [ ("quant", 6.0); ("relu", 4.0); ("tanh", 12.0); ("sigmoid", 11.0); ("id", 1.0) ];
    mk_m = 64;
    mk_n = 64;
    mk_k = 32;
  }

let tiny ?(mesh = 2) ?cols ?(mk = (4, 4, 2)) () =
  let mk_m, mk_n, mk_k = mk in
  let cols = match cols with Some c -> c | None -> mesh in
  {
    sw26010pro with
    name = Printf.sprintf "tiny-%dx%d" mesh cols;
    mesh_rows = mesh;
    mesh_cols = cols;
    spm_bytes = 16 * 1024;
    mk_m;
    mk_n;
    mk_k;
  }

let peak_flops_per_s c =
  float_of_int (c.mesh_rows * c.mesh_cols)
  *. c.cpe_freq_hz *. c.cpe_simd_flops_per_cycle

let peak_gflops c = peak_flops_per_s c /. 1e9

let micro_kernel_seconds c ~style ~m ~n ~k =
  let flops = float_of_int (Sw_kernels.Micro.flops ~m ~n ~k) in
  let rate =
    match style with
    | `Asm -> c.cpe_freq_hz *. c.cpe_simd_flops_per_cycle *. c.micro_kernel_efficiency
    | `Naive -> c.cpe_freq_hz *. c.cpe_naive_flops_per_cycle
  in
  (flops /. rate) +. c.kernel_call_overhead_s

(* Cost of running an m x n x k GEMM on the management core instead of the
   mesh — the graceful-degradation path when CPE-side recovery is
   exhausted. The MPE is modelled as a scalar FMA core bounded by its
   stream bandwidth (A + B read, C read+write, 8 bytes each). *)
let mpe_gemm_seconds c ~m ~n ~k =
  let compute = float_of_int (2 * m * n * k) /. (c.mpe_freq_hz *. 2.0) in
  let bytes = 8 * ((m * k) + (k * n) + (2 * m * n)) in
  let stream = float_of_int bytes /. c.mpe_stream_bw_bytes_per_s in
  Float.max compute stream

(* Elementwise functions with no entry in the model table cost a
   conservative 8 cycles/elem. That fallback is logged (once per
   function name) so a missing calibration entry is visible rather than
   silently absorbed into the MPE estimate. *)
let unknown_ew_cycles = 8.0
let warned_ew_fns : (string, unit) Hashtbl.t = Hashtbl.create 7

let warn_unknown_ew_fn ~config_name fn =
  if not (Hashtbl.mem warned_ew_fns fn) then begin
    Hashtbl.replace warned_ew_fns fn ();
    Printf.eprintf
      "swgemm: warning: elementwise fn %S has no cycles/elem entry in the \
       %s model; assuming %g cycles/elem\n%!"
      fn config_name unknown_ew_cycles
  end

let mpe_ew_seconds c ~fn ~elems =
  let base_fn =
    (* parameterized kernels (scale:<c>) cost like "id" *)
    if String.starts_with ~prefix:"scale:" fn then "id" else fn
  in
  let cycles =
    match List.assoc_opt base_fn c.mpe_ew_cycles_per_elem with
    | Some x -> x
    | None ->
        warn_unknown_ew_fn ~config_name:c.name base_fn;
        unknown_ew_cycles
  in
  let stream = float_of_int (16 * elems) /. c.mpe_stream_bw_bytes_per_s in
  let compute = float_of_int elems *. cycles /. c.mpe_freq_hz in
  Float.max stream compute

let validate c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if c.mesh_rows <= 0 || c.mesh_cols <= 0 then err "empty mesh"
  else if c.mk_m <= 0 || c.mk_n <= 0 || c.mk_k <= 0 then err "empty micro kernel"
  else if
    c.cpe_freq_hz <= 0.0 || c.mem_bw_bytes_per_s <= 0.0
    || c.rma_bw_bytes_per_s <= 0.0
    || c.micro_kernel_efficiency <= 0.0
    || c.micro_kernel_efficiency > 1.0
  then err "non-positive rate or efficiency out of (0, 1]"
  else if List.exists (fun (_, cyc) -> cyc <= 0.0) c.mpe_ew_cycles_per_elem
  then err "non-positive cycles/elem in the MPE elementwise table"
  else begin
    (* the nine local buffers of §6.3: C + 2x(A dma, B dma, A bcast, B bcast) *)
    let bytes =
      8
      * ((c.mk_m * c.mk_n)
        + (4 * c.mk_m * c.mk_k)
        + (4 * c.mk_k * c.mk_n))
    in
    if bytes > c.spm_bytes then
      err "micro kernel tiles (%d bytes double-buffered) overflow the %d-byte SPM"
        bytes c.spm_bytes
    else Ok ()
  end
