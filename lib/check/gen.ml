open Sw_core

let pick st arr = arr.(Random.State.int st (Array.length arr))

(* exactly-representable scalars, weighted toward the common cases *)
let alphas = [| 1.0; 1.0; 1.0; 2.0; 0.5; -1.0; 0.0; 1.5; -0.25 |]
let betas = [| 1.0; 1.0; 1.0; 0.0; 2.0; 0.5; -1.0 |]

(* the paper's placement: quantization before the product, activations
   after; quant stays out of epilogues because rounding a sum that two
   routes accumulate in different orders is legitimately discontinuous *)
let prologue_fns = [| "quant"; "id" |]
let epilogue_fns = [| "relu"; "tanh"; "sigmoid"; "id" |]

let options_pool =
  [| Options.all_on; Options.all_on; Options.with_rma; Options.with_asm;
     Options.baseline |]

(* default machine pool, weighted toward the smallest model; a fuzz
   campaign can substitute any config ids via [?archs] *)
let default_archs = [| "tiny2"; "tiny2"; "tiny2-deep"; "tiny4" |]
let batches = [| None; None; None; Some 2; Some 3 |]

(* m*n*k*batch budget keeping one functional simulation in the tens of
   milliseconds on the tiny models *)
let max_volume = 16_384

let gen_dim st ~trips ~tile =
  if Random.State.bool st then tile * (1 + Random.State.int st trips)
  else 1 + Random.State.int st (trips * tile)

let clamp_volume (spec : Spec.t) =
  let nb = match spec.Spec.batch with Some b -> b | None -> 1 in
  let rec go m n k =
    if m * n * k * nb <= max_volume then (m, n, k)
    else if m >= n && m >= k then go (max 1 (m / 2)) n k
    else if n >= k then go m (max 1 (n / 2)) k
    else go m n (max 1 (k / 2))
  in
  let m, n, k = go spec.Spec.m spec.Spec.n spec.Spec.k in
  { spec with Spec.m; n; k }

let gen_fusion st =
  match Random.State.int st 4 with
  | 0 -> Spec.Prologue (pick st prologue_fns)
  | 1 -> Spec.Epilogue (pick st epilogue_fns)
  | _ -> Spec.No_fusion

(* The decomposition tiles of the case's machine and the most of them a
   dimension spans: 3, or more where a batch of three cubes of
   [trips] tiles a side still fits the volume budget — so the small
   meshes reach trip counts of 4 and more, and every registry preset
   keeps 3. *)
let tiles_of config =
  let cfg = Case.config_of config in
  let tm = cfg.Sw_arch.Config.mesh_rows * cfg.Sw_arch.Config.mk_m
  and tn = cfg.Sw_arch.Config.mesh_cols * cfg.Sw_arch.Config.mk_n
  and tk =
    min cfg.Sw_arch.Config.mesh_rows cfg.Sw_arch.Config.mesh_cols
    * cfg.Sw_arch.Config.mk_k
  in
  let budget = max_volume / (3 * tm * tn * tk) in
  let rec root t =
    if (t + 1) * (t + 1) * (t + 1) <= budget then root (t + 1) else t
  in
  (max 3 (root 0), tm, tn, tk)

let fresh ?(archs = default_archs) st =
  let config = pick st archs in
  let trips, tm, tn, tk = tiles_of config in
  let spec =
    Spec.make
      ?batch:(pick st batches)
      ~alpha:(pick st alphas) ~beta:(pick st betas)
      ~ta:(Random.State.bool st) ~tb:(Random.State.bool st)
      ~fusion:(gen_fusion st)
      ~m:(gen_dim st ~trips ~tile:tm)
      ~n:(gen_dim st ~trips ~tile:tn)
      ~k:(gen_dim st ~trips ~tile:tk)
      ()
  in
  {
    Case.spec = clamp_volume spec;
    options = pick st options_pool;
    config;
    data_seed = Random.State.int st 1_000_000;
    fault = None;
  }

(* re-randomize one facet of a corpus entry *)
let mutate st (base : Case.t) =
  let s = base.Case.spec in
  let trips, tm, tn, tk = tiles_of base.Case.config in
  let spec =
    match Random.State.int st 8 with
    | 0 -> { s with Spec.m = gen_dim st ~trips ~tile:tm }
    | 1 -> { s with Spec.n = gen_dim st ~trips ~tile:tn }
    | 2 -> { s with Spec.k = gen_dim st ~trips ~tile:tk }
    | 3 -> { s with Spec.batch = pick st batches }
    | 4 -> { s with Spec.ta = not s.Spec.ta; tb = Random.State.bool st }
    | 5 -> { s with Spec.alpha = pick st alphas; beta = pick st betas }
    | _ -> { s with Spec.fusion = gen_fusion st }
  in
  {
    base with
    Case.spec = clamp_volume spec;
    options = pick st options_pool;
    data_seed = Random.State.int st 1_000_000;
    fault = None;
  }

let generate ?archs st ~id ~corpus ~fault =
  let case =
    match corpus with
    | [] -> fresh ?archs st
    | pool ->
        if Random.State.bool st then
          mutate st (List.nth pool (Random.State.int st (List.length pool)))
        else fresh ?archs st
  in
  let fault =
    match fault with
    | Some (seeds, kinds) when Random.State.int st 2 = 0 ->
        Some (seeds.(Random.State.int st (Array.length seeds)) + id, kinds)
    | _ -> None
  in
  { case with Case.fault }

let shrink_candidates (c : Case.t) =
  let s = c.Case.spec in
  let dim get set =
    let v = get s in
    if v > 1 then [ set s 1; set s (v / 2) ] else []
  in
  let specs =
    List.concat
      [
        dim (fun s -> s.Spec.m) (fun s v -> { s with Spec.m = v });
        dim (fun s -> s.Spec.n) (fun s v -> { s with Spec.n = v });
        dim (fun s -> s.Spec.k) (fun s v -> { s with Spec.k = v });
        (match s.Spec.batch with
        | Some _ -> [ { s with Spec.batch = None } ]
        | None -> []);
        (match s.Spec.fusion with
        | Spec.No_fusion -> []
        | _ -> [ { s with Spec.fusion = Spec.No_fusion } ]);
        (if s.Spec.ta then [ { s with Spec.ta = false } ] else []);
        (if s.Spec.tb then [ { s with Spec.tb = false } ] else []);
        (if s.Spec.alpha <> 1.0 then [ { s with Spec.alpha = 1.0 } ] else []);
        (if s.Spec.beta <> 1.0 then [ { s with Spec.beta = 1.0 } ] else []);
      ]
  in
  List.map (fun spec -> { c with Case.spec }) specs
