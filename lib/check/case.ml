open Sw_core
module Json = Sw_obs.Json

type config_id = string

let all_config_ids = [ "tiny2"; "tiny2-deep"; "tiny4" ]
let config_id_to_string id = id

(* "preset@MxNxK" overrides the preset's micro-kernel shape — the form
   tuned winners take when the tuning DB feeds the fuzzer. *)
let split_id s =
  match String.index_opt s '@' with
  | None -> (s, None)
  | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )

let mk_of_string s =
  match String.split_on_char 'x' s with
  | [ a; b; c ] -> (
      match
        (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c)
      with
      | Some m, Some n, Some k when m > 0 && n > 0 && k > 0 -> Some (m, n, k)
      | _ -> None)
  | _ -> None

let resolve_id s =
  let preset, override = split_id s in
  match (Sw_arch.Arch_desc.config_of_name preset, override) with
  | None, _ -> None
  | Some c, None -> Some c
  | Some c, Some mk -> (
      match mk_of_string mk with
      | None -> None
      | Some (m, n, k) -> (
          let c = { c with Sw_arch.Config.mk_m = m; mk_n = n; mk_k = k } in
          match Sw_arch.Config.validate c with
          | Ok () -> Some c
          | Error _ -> None))

let config_id_of_string s =
  match resolve_id s with Some _ -> Some s | None -> None

let config_of id =
  match resolve_id id with
  | Some c -> c
  | None -> invalid_arg ("Case.config_of: unknown arch preset " ^ id)

type t = {
  spec : Spec.t;
  options : Options.t;
  config : config_id;
  data_seed : int;
  fault : (int * Sw_arch.Fault.kind list option) option;
}

let fault_to_string = function
  | None -> ""
  | Some (seed, None) -> Printf.sprintf " fault=%d:all" seed
  | Some (seed, Some kinds) ->
      Printf.sprintf " fault=%d:%s" seed
        (String.concat "+" (List.map Sw_arch.Fault.kind_to_string kinds))

let to_string t =
  Printf.sprintf "%s | %s %s data=%d%s" (Spec.to_string t.spec)
    (Options.name t.options)
    (config_id_to_string t.config)
    t.data_seed (fault_to_string t.fault)

let to_json t =
  let s = t.spec in
  Json.Obj
    [
      ("m", Json.Int s.Spec.m);
      ("n", Json.Int s.Spec.n);
      ("k", Json.Int s.Spec.k);
      ("batch", match s.Spec.batch with None -> Json.Null | Some b -> Json.Int b);
      ("alpha", Json.Float s.Spec.alpha);
      ("beta", Json.Float s.Spec.beta);
      ("ta", Json.Bool s.Spec.ta);
      ("tb", Json.Bool s.Spec.tb);
      ("fusion", Json.String (Spec.fusion_to_string s.Spec.fusion));
      ( "options",
        Json.Obj
          [
            ("use_asm", Json.Bool t.options.Options.use_asm);
            ("use_rma", Json.Bool t.options.Options.use_rma);
            ("hiding", Json.Bool t.options.Options.hiding);
          ] );
      ("config", Json.String (config_id_to_string t.config));
      ("data_seed", Json.Int t.data_seed);
      ( "fault",
        match t.fault with
        | None -> Json.Null
        | Some (seed, kinds) ->
            Json.Obj
              [
                ("seed", Json.Int seed);
                ( "kinds",
                  match kinds with
                  | None -> Json.Null
                  | Some ks ->
                      Json.List
                        (List.map
                           (fun k ->
                             Json.String (Sw_arch.Fault.kind_to_string k))
                           ks) );
              ] );
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "case: missing or ill-typed field %S" name)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "case: ill-typed field %S" name))

let of_json j =
  let* m = field "m" Json.to_int_opt j in
  let* n = field "n" Json.to_int_opt j in
  let* k = field "k" Json.to_int_opt j in
  let* batch = opt_field "batch" Json.to_int_opt j in
  let* alpha = field "alpha" Json.to_float_opt j in
  let* beta = field "beta" Json.to_float_opt j in
  let* ta = field "ta" Json.to_bool_opt j in
  let* tb = field "tb" Json.to_bool_opt j in
  let* fusion =
    let* s = field "fusion" Json.to_string_opt j in
    Result.map_error
      (fun _ -> Printf.sprintf "case: unknown fusion %S" s)
      (Spec.fusion_of_string s)
  in
  let* options =
    match Json.member "options" j with
    | None -> Error "case: missing field \"options\""
    | Some o ->
        let* use_asm = field "use_asm" Json.to_bool_opt o in
        let* use_rma = field "use_rma" Json.to_bool_opt o in
        let* hiding = field "hiding" Json.to_bool_opt o in
        let options = { Options.use_asm; use_rma; hiding } in
        let* () = Options.validate options in
        Ok options
  in
  let* config =
    let* s = field "config" Json.to_string_opt j in
    match config_id_of_string s with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "case: unknown config %S" s)
  in
  let* data_seed = field "data_seed" Json.to_int_opt j in
  let* fault =
    match Json.member "fault" j with
    | None | Some Json.Null -> Ok None
    | Some f ->
        let* seed = field "seed" Json.to_int_opt f in
        let* kinds =
          match Json.member "kinds" f with
          | None | Some Json.Null -> Ok None
          | Some (Json.List ks) ->
              let rec conv acc = function
                | [] -> Ok (Some (List.rev acc))
                | Json.String s :: rest -> (
                    match Sw_arch.Fault.kind_of_string s with
                    | Some kd -> conv (kd :: acc) rest
                    | None ->
                        Error (Printf.sprintf "case: unknown fault kind %S" s))
                | _ -> Error "case: fault kinds must be strings"
              in
              conv [] ks
          | Some _ -> Error "case: fault kinds must be a list"
        in
        Ok (Some (seed, kinds))
  in
  match Spec.make ?batch ~alpha ~beta ~ta ~tb ~fusion ~m ~n ~k () with
  | exception Invalid_argument e -> Error e
  | spec -> Ok { spec; options; config; data_seed; fault }
