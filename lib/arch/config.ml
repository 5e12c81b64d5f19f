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
  noc_link_bw_bytes_per_s : float;
  noc_src_bw_bytes_per_s : float;
  noc_latency_s : float;
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
    (* calibrated against the measured inter-cluster numbers of the
       multi-cluster model *)
    noc_link_bw_bytes_per_s = 24.0e9;
    noc_src_bw_bytes_per_s = 80.0e9;
    noc_latency_s = 4.0e-6;
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


(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

type error =
  | Empty_mesh of { rows : int; cols : int }
  | Empty_micro_kernel of { m : int; n : int; k : int }
  | Non_positive_rate of string * float
  | Efficiency_out_of_range of float
  | Spm_overflow of { needed_bytes : int; spm_bytes : int }

let error_to_string = function
  | Empty_mesh { rows; cols } -> Printf.sprintf "empty mesh (%dx%d)" rows cols
  | Empty_micro_kernel { m; n; k } ->
      Printf.sprintf "empty micro kernel (%dx%dx%d)" m n k
  | Non_positive_rate (field, v) ->
      Printf.sprintf "non-positive %s (%g)" field v
  | Efficiency_out_of_range e ->
      Printf.sprintf "micro-kernel efficiency %g out of (0, 1]" e
  | Spm_overflow { needed_bytes; spm_bytes } ->
      Printf.sprintf
        "micro kernel tiles (%d bytes double-buffered) overflow the %d-byte \
         SPM"
        needed_bytes spm_bytes

(* the nine local buffers of §6.3: C + 2x(A dma, B dma, A bcast, B bcast) *)
let spm_needed_bytes c =
  8 * ((c.mk_m * c.mk_n) + (4 * c.mk_m * c.mk_k) + (4 * c.mk_k * c.mk_n))

let validate c =
  (* every rate, named by its field path in the JSON format *)
  let rates =
    [
      ("cpe.freq_hz", c.cpe_freq_hz);
      ("cpe.simd_flops_per_cycle", c.cpe_simd_flops_per_cycle);
      ("cpe.naive_flops_per_cycle", c.cpe_naive_flops_per_cycle);
      ("cpe.ew_cycles_per_elem", c.ew_cpe_cycles_per_elem);
      ("dma.bw_bytes_per_s", c.mem_bw_bytes_per_s);
      ("rma.bw_bytes_per_s", c.rma_bw_bytes_per_s);
      ("mpe.freq_hz", c.mpe_freq_hz);
      ("mpe.stream_bw_bytes_per_s", c.mpe_stream_bw_bytes_per_s);
      ("noc.link_bw_bytes_per_s", c.noc_link_bw_bytes_per_s);
      ("noc.src_bw_bytes_per_s", c.noc_src_bw_bytes_per_s);
    ]
  in
  let non_positive (_, v) = v <= 0.0 in
  if c.mesh_rows <= 0 || c.mesh_cols <= 0 then
    Error (Empty_mesh { rows = c.mesh_rows; cols = c.mesh_cols })
  else if c.mk_m <= 0 || c.mk_n <= 0 || c.mk_k <= 0 then
    Error (Empty_micro_kernel { m = c.mk_m; n = c.mk_n; k = c.mk_k })
  else
    match
      ( List.find_opt non_positive rates,
        List.find_opt non_positive c.mpe_ew_cycles_per_elem )
    with
    | Some (field, v), _ -> Error (Non_positive_rate (field, v))
    | None, Some (fn, v) ->
        Error
          (Non_positive_rate (Printf.sprintf "mpe.ew_cycles_per_elem[%s]" fn, v))
    | None, None ->
        let needed = spm_needed_bytes c in
        if c.micro_kernel_efficiency <= 0.0 || c.micro_kernel_efficiency > 1.0
        then Error (Efficiency_out_of_range c.micro_kernel_efficiency)
        else if needed > c.spm_bytes then
          Error (Spm_overflow { needed_bytes = needed; spm_bytes = c.spm_bytes })
        else Ok ()

(* ------------------------------------------------------------------ *)
(* Presets                                                              *)
(* ------------------------------------------------------------------ *)

(* Full-scale variants share the calibrated SW26010Pro per-CPE and link
   parameters; only the mesh geometry differs. The tiny family (16 KiB
   SPM, 4x4x2 micro kernel) is what the conformance fuzzer and the fast
   functional tests simulate. *)
let all =
  let scaled name rows cols =
    { sw26010pro with name; mesh_rows = rows; mesh_cols = cols }
  in
  let small ?mk name rows cols = { (tiny ~mesh:rows ~cols ?mk ()) with name } in
  [
    scaled "sw26010pro" 8 8;
    scaled "sw26010pro-4x4" 4 4;
    scaled "sw26010pro-8x4" 8 4;
    scaled "sw26010pro-16x16" 16 16;
    small "tiny2" 2 2;
    small "tiny2-deep" 2 2 ~mk:(4, 4, 4);
    small "tiny4" 4 4;
    small "tiny-8x8" 8 8;
    small "tiny-8x4" 8 4;
    small "tiny-16x16" 16 16;
  ]

let aliases = [ ("tiny-2x2", "tiny2"); ("tiny-4x4", "tiny4") ]

let find name =
  let canonical = Option.value (List.assoc_opt name aliases) ~default:name in
  List.find_opt (fun c -> c.name = canonical) all

let names () = List.map (fun c -> c.name) all

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

module Json = Sw_obs.Json

let to_json c =
  let f x = Json.Float x in
  Json.Obj
    [
      ("name", Json.String c.name);
      ( "mesh",
        Json.Obj [ ("rows", Json.Int c.mesh_rows); ("cols", Json.Int c.mesh_cols) ]
      );
      ("spm_bytes", Json.Int c.spm_bytes);
      ( "cpe",
        Json.Obj
          [
            ("freq_hz", f c.cpe_freq_hz);
            ("simd_flops_per_cycle", f c.cpe_simd_flops_per_cycle);
            ("naive_flops_per_cycle", f c.cpe_naive_flops_per_cycle);
            ("ew_cycles_per_elem", f c.ew_cpe_cycles_per_elem);
          ] );
      ( "micro_kernel",
        Json.Obj
          [
            ("m", Json.Int c.mk_m);
            ("n", Json.Int c.mk_n);
            ("k", Json.Int c.mk_k);
            ("efficiency", f c.micro_kernel_efficiency);
            ("call_overhead_s", f c.kernel_call_overhead_s);
          ] );
      ( "dma",
        Json.Obj
          [
            ("bw_bytes_per_s", f c.mem_bw_bytes_per_s);
            ("latency_s", f c.dma_latency_s);
          ] );
      ( "rma",
        Json.Obj
          [
            ("bw_bytes_per_s", f c.rma_bw_bytes_per_s);
            ("latency_s", f c.rma_latency_s);
          ] );
      ("sync_latency_s", f c.sync_latency_s);
      ("mesh_startup_s", f c.mesh_startup_s);
      ( "mpe",
        Json.Obj
          [
            ("freq_hz", f c.mpe_freq_hz);
            ("stream_bw_bytes_per_s", f c.mpe_stream_bw_bytes_per_s);
            ( "ew_cycles_per_elem",
              Json.Obj
                (List.map (fun (fn, cyc) -> (fn, f cyc)) c.mpe_ew_cycles_per_elem)
            );
          ] );
      ( "noc",
        Json.Obj
          [
            ("link_bw_bytes_per_s", f c.noc_link_bw_bytes_per_s);
            ("src_bw_bytes_per_s", f c.noc_src_bw_bytes_per_s);
            ("latency_s", f c.noc_latency_s);
          ] );
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let scalar what of_opt path j =
    match of_opt j with Some v -> Ok v | None -> fail "%s: expected %s" path what
  in
  let int = scalar "an integer" Json.to_int_opt in
  let num = scalar "a number" Json.to_float_opt in
  let str = scalar "a string" Json.to_string_opt in
  (* Strict object decoder: every listed field must be present and no
     other field may appear. [get] decodes one member of a decoded object
     and names it by its dotted path in errors. *)
  let obj fields path j =
    let where = if path = "" then "description" else path in
    match j with
    | Json.Obj members -> (
        match
          ( List.find_opt (fun (f, _) -> not (List.mem f fields)) members,
            List.find_opt (fun f -> not (List.mem_assoc f members)) fields )
        with
        | Some (f, _), _ -> fail "%s: unknown field %S" where f
        | None, Some f -> fail "%s: missing field %S" where f
        | None, None -> Ok (path, members))
    | _ -> fail "%s: expected an object" where
  in
  let get (path, members) conv f =
    conv (if path = "" then f else path ^ "." ^ f) (List.assoc f members)
  in
  (* the MPE element-wise table: any kernel name, each a number *)
  let table path = function
    | Json.Obj members ->
        List.fold_left
          (fun acc (fn, v) ->
            let* rows = acc in
            let* cyc = num (Printf.sprintf "%s[%s]" path fn) v in
            Ok ((fn, cyc) :: rows))
          (Ok []) members
        |> Result.map List.rev
    | _ -> fail "%s: expected an object" path
  in
  let link = obj [ "bw_bytes_per_s"; "latency_s" ] in
  let* d =
    obj
      [
        "name"; "mesh"; "spm_bytes"; "cpe"; "micro_kernel"; "dma"; "rma";
        "sync_latency_s"; "mesh_startup_s"; "mpe"; "noc";
      ]
      "" j
  in
  let* name = get d str "name" in
  let* mesh = get d (obj [ "rows"; "cols" ]) "mesh" in
  let* mesh_rows = get mesh int "rows" in
  let* mesh_cols = get mesh int "cols" in
  let* spm_bytes = get d int "spm_bytes" in
  let* cpe =
    get d
      (obj
         [
           "freq_hz"; "simd_flops_per_cycle"; "naive_flops_per_cycle";
           "ew_cycles_per_elem";
         ])
      "cpe"
  in
  let* cpe_freq_hz = get cpe num "freq_hz" in
  let* cpe_simd_flops_per_cycle = get cpe num "simd_flops_per_cycle" in
  let* cpe_naive_flops_per_cycle = get cpe num "naive_flops_per_cycle" in
  let* ew_cpe_cycles_per_elem = get cpe num "ew_cycles_per_elem" in
  let* mk =
    get d (obj [ "m"; "n"; "k"; "efficiency"; "call_overhead_s" ]) "micro_kernel"
  in
  let* mk_m = get mk int "m" in
  let* mk_n = get mk int "n" in
  let* mk_k = get mk int "k" in
  let* micro_kernel_efficiency = get mk num "efficiency" in
  let* kernel_call_overhead_s = get mk num "call_overhead_s" in
  let* dma = get d link "dma" in
  let* mem_bw_bytes_per_s = get dma num "bw_bytes_per_s" in
  let* dma_latency_s = get dma num "latency_s" in
  let* rma = get d link "rma" in
  let* rma_bw_bytes_per_s = get rma num "bw_bytes_per_s" in
  let* rma_latency_s = get rma num "latency_s" in
  let* sync_latency_s = get d num "sync_latency_s" in
  let* mesh_startup_s = get d num "mesh_startup_s" in
  let* mpe =
    get d (obj [ "freq_hz"; "stream_bw_bytes_per_s"; "ew_cycles_per_elem" ]) "mpe"
  in
  let* mpe_freq_hz = get mpe num "freq_hz" in
  let* mpe_stream_bw_bytes_per_s = get mpe num "stream_bw_bytes_per_s" in
  let* mpe_ew_cycles_per_elem = get mpe table "ew_cycles_per_elem" in
  let* noc =
    get d (obj [ "link_bw_bytes_per_s"; "src_bw_bytes_per_s"; "latency_s" ]) "noc"
  in
  let* noc_link_bw_bytes_per_s = get noc num "link_bw_bytes_per_s" in
  let* noc_src_bw_bytes_per_s = get noc num "src_bw_bytes_per_s" in
  let* noc_latency_s = get noc num "latency_s" in
  Ok
    {
      name;
      mesh_rows;
      mesh_cols;
      spm_bytes;
      cpe_freq_hz;
      cpe_simd_flops_per_cycle;
      cpe_naive_flops_per_cycle;
      micro_kernel_efficiency;
      kernel_call_overhead_s;
      mem_bw_bytes_per_s;
      dma_latency_s;
      rma_bw_bytes_per_s;
      rma_latency_s;
      sync_latency_s;
      mesh_startup_s;
      ew_cpe_cycles_per_elem;
      mpe_stream_bw_bytes_per_s;
      mpe_freq_hz;
      mpe_ew_cycles_per_elem;
      mk_m;
      mk_n;
      mk_k;
      noc_link_bw_bytes_per_s;
      noc_src_bw_bytes_per_s;
      noc_latency_s;
    }

let load_file path =
  let ( let* ) = Result.bind in
  let* j = Json.parse_file path in
  let* c = of_json j in
  match validate c with
  | Ok () -> Ok c
  | Error e ->
      Error (Printf.sprintf "%s: invalid description: %s" path (error_to_string e))
