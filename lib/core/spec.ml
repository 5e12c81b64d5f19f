type fusion = No_fusion | Prologue of string | Epilogue of string

type t = {
  m : int;
  n : int;
  k : int;
  batch : int option;
  alpha : float;
  beta : float;
  ta : bool;
  tb : bool;
  fusion : fusion;
}

let make ?batch ?(alpha = 1.0) ?(beta = 1.0) ?(ta = false) ?(tb = false)
    ?(fusion = No_fusion) ~m ~n ~k () =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Spec.make: non-positive size";
  (match batch with
  | Some b when b <= 0 -> invalid_arg "Spec.make: non-positive batch"
  | _ -> ());
  (match fusion with
  | No_fusion -> ()
  | Prologue fn | Epilogue fn ->
      if not (Sw_kernels.Elementwise.known fn) then
        invalid_arg ("Spec.make: unknown element-wise kernel " ^ fn));
  { m; n; k; batch; alpha; beta; ta; tb; fusion }

let mesh_m c = c.Sw_arch.Config.mesh_rows * c.Sw_arch.Config.mk_m
let mesh_n c = c.Sw_arch.Config.mesh_cols * c.Sw_arch.Config.mk_n
let panel_k c =
  min c.Sw_arch.Config.mesh_rows c.Sw_arch.Config.mesh_cols
  * c.Sw_arch.Config.mk_k

let pad_for t config =
  {
    t with
    m = Sw_blas.Matrix.round_up t.m ~multiple:(mesh_m config);
    n = Sw_blas.Matrix.round_up t.n ~multiple:(mesh_n config);
    k = Sw_blas.Matrix.round_up t.k ~multiple:(panel_k config);
  }

let is_aligned t config =
  t.m mod mesh_m config = 0
  && t.n mod mesh_n config = 0
  && t.k mod panel_k config = 0

let flops t =
  2 * t.m * t.n * t.k * match t.batch with Some b -> b | None -> 1

let to_string t =
  let base =
    Printf.sprintf "%dx%dx%d" t.m t.n t.k
  in
  let batch =
    match t.batch with Some b -> Printf.sprintf " batch=%d" b | None -> ""
  in
  let fusion =
    match t.fusion with
    | No_fusion -> ""
    | Prologue fn -> Printf.sprintf " prologue=%s" fn
    | Epilogue fn -> Printf.sprintf " epilogue=%s" fn
  in
  let trans =
    (if t.ta then " At" else "") ^ if t.tb then " Bt" else ""
  in
  Printf.sprintf "%s alpha=%g beta=%g%s%s%s" base t.alpha t.beta trans batch
    fusion

let fusion_to_string = function
  | No_fusion -> "none"
  | Prologue fn -> "prologue:" ^ fn
  | Epilogue fn -> "epilogue:" ^ fn

let fusion_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok No_fusion
  | [ "prologue"; fn ] -> Ok (Prologue fn)
  | [ "epilogue"; fn ] -> Ok (Epilogue fn)
  | _ -> Error "fusion must be prologue:<fn> or epilogue:<fn>"

(* ------------------------------------------------------------------ *)
(* Wire image                                                           *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let open Sw_obs.Json in
  Obj
    ([ ("m", Int t.m); ("n", Int t.n); ("k", Int t.k) ]
    @ (match t.batch with Some b -> [ ("batch", Int b) ] | None -> [])
    @ [
        ("alpha", Float t.alpha);
        ("beta", Float t.beta);
        ("ta", Bool t.ta);
        ("tb", Bool t.tb);
      ]
    @
    match t.fusion with
    | No_fusion -> []
    | Prologue fn -> [ ("prologue", String fn) ]
    | Epilogue fn -> [ ("epilogue", String fn) ])

let of_json json =
  let module J = Sw_obs.Json in
  let req name conv =
    match Option.bind (J.member name json) conv with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "spec: missing or bad %S" name)
  in
  let opt name conv ~default =
    match J.member name json with
    | None -> Ok default
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "spec: bad %S" name))
  in
  let ( let* ) = Result.bind in
  let* m = req "m" J.to_int_opt in
  let* n = req "n" J.to_int_opt in
  let* k = req "k" J.to_int_opt in
  let* alpha = opt "alpha" J.to_float_opt ~default:1.0 in
  let* beta = opt "beta" J.to_float_opt ~default:1.0 in
  let* ta = opt "ta" J.to_bool_opt ~default:false in
  let* tb = opt "tb" J.to_bool_opt ~default:false in
  let* batch =
    opt "batch" (fun v -> Option.map Option.some (J.to_int_opt v)) ~default:None
  in
  let* fusion =
    match (J.member "prologue" json, J.member "epilogue" json) with
    | Some _, Some _ -> Error "spec: both \"prologue\" and \"epilogue\""
    | Some v, None -> (
        match J.to_string_opt v with
        | Some fn -> Ok (Prologue fn)
        | None -> Error "spec: bad \"prologue\"")
    | None, Some v -> (
        match J.to_string_opt v with
        | Some fn -> Ok (Epilogue fn)
        | None -> Error "spec: bad \"epilogue\"")
    | None, None -> Ok No_fusion
  in
  match make ?batch ~alpha ~beta ~ta ~tb ~fusion ~m ~n ~k () with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
