open Sw_core
module Config = Sw_arch.Config

type candidate = {
  mk : int * int * int;
  strip : int;
  buffers : int;
  fuse : bool;
}

let key c =
  let m, n, k = c.mk in
  Printf.sprintf "mk%04dx%04dx%04d/strip%02d/buf%d/%s" m n k c.strip c.buffers
    (if c.fuse then "fused" else "split")

let default (config : Config.t) (_spec : Spec.t) =
  {
    mk = (config.Config.mk_m, config.Config.mk_n, config.Config.mk_k);
    strip = min config.Config.mesh_rows config.Config.mesh_cols;
    buffers = 2;
    fuse = true;
  }

(* The classic tuning ladder every ATLAS-style search walks, plus the
   halved/doubled neighborhood of the machine's own shape so the space
   adapts to any mesh scale (the tiny test family included). *)
let ladder =
  [
    (16, 16, 8); (32, 32, 16); (32, 64, 32); (64, 32, 32); (64, 64, 16);
    (64, 64, 32); (64, 64, 64); (96, 96, 32); (128, 128, 64);
  ]

let mk_shapes (config : Config.t) =
  let dm = config.Config.mk_m
  and dn = config.Config.mk_n
  and dk = config.Config.mk_k in
  let neighborhood =
    [
      (dm, dn, dk);
      (dm / 2, dn, dk); (dm, dn / 2, dk); (dm, dn, dk / 2);
      (2 * dm, dn, dk); (dm, 2 * dn, dk); (dm, dn, 2 * dk);
      (dm / 2, dn / 2, dk); (2 * dm, 2 * dn, dk); (2 * dm, 2 * dn, 2 * dk);
    ]
  in
  List.sort_uniq compare
    (List.filter
       (fun (m, n, k) -> m > 0 && n > 0 && k > 0)
       (neighborhood @ ladder))

let enumerate ~(config : Config.t) ~(spec : Spec.t) =
  let pc = min config.Config.mesh_rows config.Config.mesh_cols in
  let strips = List.sort_uniq compare [ 1; pc; 2 * pc ] in
  let fuses =
    match spec.Spec.fusion with
    | Spec.No_fusion -> [ true ]
    | _ -> [ true; false ]
  in
  let all =
    List.concat_map
      (fun mk ->
        List.concat_map
          (fun strip ->
            List.concat_map
              (fun buffers ->
                List.map (fun fuse -> { mk; strip; buffers; fuse }) fuses)
              [ 1; 2; 3 ])
          strips)
      (mk_shapes config)
  in
  List.sort_uniq (fun a b -> compare (key a) (key b)) all

type realized = {
  cfg : Config.t;
  options : Options.t;
  efficiency : float;
  eff_note : string;
  bound : float;
}

(* The Kgen estimate is relative to its own kernel's [2 * lanes]
   flops/cycle; rescale to the machine's SIMD width so the efficiency
   composes with the config's peak (a 4-lane kernel on a 16-flop/cycle
   pipeline tops out at 50%). *)
let kernel_efficiency (config : Config.t) (m, n, k) =
  if (m, n, k) = (config.Config.mk_m, config.Config.mk_n, config.Config.mk_k)
  then Ok (config.Config.micro_kernel_efficiency, "vendor assembly routine")
  else
    let lanes =
      if n mod 8 = 0 then 8
      else if n mod 4 = 0 then 4
      else if n mod 2 = 0 then 2
      else 1
    in
    match Sw_kernels.Kgen.generate ~lanes ~m ~n ~k () with
    | Error e -> Error ("kernel generation failed: " ^ e)
    | Ok t ->
        let raw = Sw_kernels.Kgen.estimated_efficiency t in
        let eff =
          Float.min 1.0
            (raw *. (2.0 *. float_of_int lanes)
            /. config.Config.cpe_simd_flops_per_cycle)
        in
        if eff <= 0.0 then Error "kernel estimate: zero efficiency"
        else
          Ok
            ( eff,
              Printf.sprintf "generated kernel (est. %.1f%% of SIMD peak)"
                (100.0 *. eff) )

let analytic_bound ~(spec : Spec.t) ~(cfg : Config.t) =
  let padded = Spec.pad_for spec cfg in
  let compute = cfg.Config.micro_kernel_efficiency *. Config.peak_gflops cfg in
  let mesh_m = float_of_int (cfg.Config.mesh_rows * cfg.Config.mk_m)
  and mesh_n = float_of_int (cfg.Config.mesh_cols * cfg.Config.mk_n) in
  let ai = mesh_m *. mesh_n /. (4.0 *. (mesh_m +. mesh_n)) in
  let memory = ai *. cfg.Config.mem_bw_bytes_per_s /. 1e9 in
  let ratio = float_of_int (Spec.flops spec) /. float_of_int (Spec.flops padded) in
  Float.min compute memory *. ratio

let realize ~(config : Config.t) ~(spec : Spec.t) (c : candidate) =
  let pc = min config.Config.mesh_rows config.Config.mesh_cols in
  let m, n, k = c.mk in
  if c.strip <> pc then
    Error
      (Printf.sprintf
         "strip factor %d unrealizable: the RMA chunk-ownership scheme \
          needs one k-chunk per broadcast root, i.e. min(R,C) = %d"
         c.strip pc)
  else if c.buffers <> 1 && c.buffers <> 2 && c.buffers <> 3 then
    Error (Printf.sprintf "buffer count %d out of range" c.buffers)
  else if c.buffers = 3 then
    let extra = 8 * ((m * k) + (k * n)) * 2 in
    Error
      (Printf.sprintf
         "triple buffering: +%d B of SPM for no additional overlap (the \
          two-stage software pipeline of §6.3 is already steady-state \
          after one copy in flight)"
         extra)
  else
    match kernel_efficiency config c.mk with
    | Error _ as e -> e
    | Ok (efficiency, eff_note) -> (
        let cfg =
          {
            config with
            Config.mk_m = m;
            mk_n = n;
            mk_k = k;
            micro_kernel_efficiency = efficiency;
          }
        in
        match Config.validate cfg with
        | Error e ->
            Error
              ("machine model rejects tile: " ^ Config.error_to_string e)
        | Ok () ->
            let options =
              if c.buffers >= 2 then Options.all_on else Options.with_rma
            in
            let padded = Spec.pad_for spec cfg in
            let tiles = Tile_model.choose padded cfg in
            let needed =
              Tile_model.spm_bytes_needed tiles ~options
                ~fusion:padded.Spec.fusion
            in
            if needed > cfg.Config.spm_bytes then
              Error
                (Printf.sprintf "SPM overflow: decomposition needs %d B of %d"
                   needed cfg.Config.spm_bytes)
            else
              Ok
                {
                  cfg;
                  options;
                  efficiency;
                  eff_note;
                  bound = analytic_bound ~spec ~cfg;
                })
