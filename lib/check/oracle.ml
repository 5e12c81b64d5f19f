open Sw_core
open Sw_blas
module F = Sw_frontend

type failure = { stage : string; detail : string }

type report = {
  feature : Feature.t;
  key : string;
  recovery : string option;
  fault_stats : (Sw_arch.Fault.kind * int) list;
}

let ( let* ) = Result.bind
let fail stage fmt = Printf.ksprintf (fun detail -> Error { stage; detail }) fmt
let tol = 1e-9

(* Deterministic hang bound: an event-count budget (never wall-clock, which
   would make failures scheduling-dependent). Clean tiny-config runs take
   well under a million events. *)
let watchdog =
  { Sw_arch.Engine.no_watchdog with Sw_arch.Engine.max_events = Some 20_000_000 }

let batch_count (spec : Spec.t) =
  match spec.Spec.batch with Some b -> b | None -> 1

let stored_dims (spec : Spec.t) =
  let a =
    if spec.Spec.ta then (spec.Spec.k, spec.Spec.m)
    else (spec.Spec.m, spec.Spec.k)
  in
  let b =
    if spec.Spec.tb then (spec.Spec.n, spec.Spec.k)
    else (spec.Spec.k, spec.Spec.n)
  in
  (a, b)

(* Input matrices at the ORIGINAL sizes, with the per-array seed
   convention of Runner.setup_memory. *)
let inputs (spec : Spec.t) ~seed =
  let nb = batch_count spec in
  let mk name rows cols =
    Array.init nb (fun b ->
        Matrix.random ~rows ~cols ~seed:(seed + (31 * b) + Hashtbl.hash name))
  in
  let (ar, ac), (br, bc) = stored_dims spec in
  (mk "A" ar ac, mk "B" br bc, mk "C" spec.Spec.m spec.Spec.n)

(* Route 3: the pure-OCaml reference, as in Runner.reference. *)
let reference (spec : Spec.t) ~a ~b ~c0 =
  let cref = Array.map Matrix.copy c0 in
  let a = if spec.Spec.ta then Array.map Matrix.transpose a else a in
  let b = if spec.Spec.tb then Array.map Matrix.transpose b else b in
  let alpha = spec.Spec.alpha and beta = spec.Spec.beta in
  Array.iteri
    (fun i (ai : Matrix.t) ->
      match spec.Spec.fusion with
      | Spec.No_fusion -> Dgemm.gemm ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i)
      | Spec.Prologue fn ->
          Dgemm.fused_prologue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i)
      | Spec.Epilogue fn ->
          Dgemm.fused_epilogue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:cref.(i))
    a;
  cref

let compare_batches ~stage ~what (cref : Matrix.t array) (got : Matrix.t array)
    =
  let rec go i =
    if i >= Array.length cref then Ok ()
    else
      let diff = Matrix.max_abs_diff cref.(i) got.(i) in
      let scale =
        Array.fold_left
          (fun acc x -> Float.max acc (abs_float x))
          1.0 cref.(i).Matrix.data
      in
      if diff > tol *. scale then
        fail stage "%s diverges on batch %d: |diff| %.3e (scale %.3e)" what i
          diff scale
      else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Route 1: direct interpretation of the rendered C source              *)
(* ------------------------------------------------------------------ *)

(* 3-D arrays cross into Exec as one [nb*rows x cols] matrix. *)
let flatten (mats : Matrix.t array) =
  match mats with
  | [| m |] -> Matrix.copy m
  | _ ->
      let rows = mats.(0).Matrix.rows and cols = mats.(0).Matrix.cols in
      let out = Matrix.create ~rows:(Array.length mats * rows) ~cols in
      Array.iteri
        (fun b m -> Matrix.blit_into ~src:m ~dst:out ~row:(b * rows) ~col:0)
        mats;
      out

let unflatten ~nb ~rows ~cols (m : Matrix.t) =
  Array.init nb (fun b -> Matrix.sub_matrix m ~row:(b * rows) ~col:0 ~rows ~cols)

let exec_route (spec : Spec.t) ~a ~b ~c0 ~cref =
  let src = Csrc.render spec in
  let fbindings =
    [ ("alpha", spec.Spec.alpha); ("beta", spec.Spec.beta) ]
  in
  match F.Parser.parse src with
  | exception F.Parser.Parse_error e ->
      fail "exec" "rendered source rejected by the parser: %s" e
  | exception F.Lexer.Lex_error e ->
      fail "exec" "rendered source rejected by the lexer: %s" e
  | func -> (
      let fa = flatten a and fb = flatten b and fc = flatten c0 in
      match
        F.Exec.run ~fbindings func
          ~arrays:[ ("A", fa); ("B", fb); ("C", fc) ]
      with
      | exception F.Exec.Exec_error e ->
          fail "exec" "direct interpretation failed: %s" e
      | () ->
          let got =
            unflatten ~nb:(batch_count spec) ~rows:spec.Spec.m
              ~cols:spec.Spec.n fc
          in
          let* () =
            compare_batches ~stage:"exec-vs-ref" ~what:"direct interpretation"
              cref got
          in
          (* the front end must also read the spec back out of the source
             (recognition has no beta form, so only when beta = 1) *)
          if spec.Spec.beta = 1.0 then
            match F.Extract.recognize ~fbindings func with
            | Error e -> fail "recognize" "pattern recognition failed: %s" e
            | Ok s when s <> spec ->
                fail "recognize" "recognized [%s], expected [%s]"
                  (Spec.to_string s) (Spec.to_string spec)
            | Ok _ -> Ok ()
          else Ok ())

(* ------------------------------------------------------------------ *)
(* Route 2: generated code on the simulated cluster                     *)
(* ------------------------------------------------------------------ *)

let compile_case (case : Case.t) ~options =
  let config = Case.config_of case.Case.config in
  let session = Session.create ~no_cache:true ~options ~arch:config () in
  match Compile.run session case.Case.spec with
  | Ok c -> Ok c
  | Error e ->
      fail "compile" "%s (under %s)"
        (Sw_arch.Error.to_string e)
        (Options.name options)

let install_padded mem name (mats : Matrix.t array) ~batched ~rows ~cols =
  let nb = Array.length mats in
  let rows_o = mats.(0).Matrix.rows and cols_o = mats.(0).Matrix.cols in
  let dims = if batched then [ nb; rows; cols ] else [ rows; cols ] in
  Sw_arch.Mem.alloc_init mem name ~dims ~f:(fun idx ->
      let b, r, c =
        match idx with
        | [| r; c |] -> (0, r, c)
        | [| b; r; c |] -> (b, r, c)
        | _ -> assert false
      in
      if r < rows_o && c < cols_o then Matrix.get mats.(b) r c else 0.0)

(* Functional run of the generated program over the original data
   zero-padded to the decomposition; returns the original-size corner of
   each C batch. Zero padding is exact for every supported spec: padded
   rows of B are zero, so even a prologue with fn(0) <> 0 contributes
   nothing to the corner. *)
let simulate (compiled : Compile.t) ~a ~b ~c0 =
  let spec = compiled.Compile.spec in
  let orig = compiled.Compile.original in
  let batched = spec.Spec.batch <> None in
  let (ar, ac), (br, bc) = stored_dims spec in
  let mem = Sw_arch.Mem.create () in
  install_padded mem "A" a ~batched ~rows:ar ~cols:ac;
  install_padded mem "B" b ~batched ~rows:br ~cols:bc;
  install_padded mem "C" c0 ~batched ~rows:spec.Spec.m ~cols:spec.Spec.n;
  match
    Sw_arch.Interp.run ~watchdog ~config:compiled.Compile.config
      ~functional:true ~mem compiled.Compile.program
  with
  | Error e -> fail "simulate" "%s" (Sw_arch.Error.to_string e)
  | Ok _ ->
      let nb = batch_count spec in
      let data = Sw_arch.Mem.data mem "C" in
      let mp = spec.Spec.m and np = spec.Spec.n in
      Ok
        (Array.init nb (fun bi ->
             Matrix.init ~rows:orig.Spec.m ~cols:orig.Spec.n ~f:(fun r c ->
                 data.((bi * mp * np) + (r * np) + c))))

(* ------------------------------------------------------------------ *)
(* Metamorphic relations                                                *)
(* ------------------------------------------------------------------ *)

(* successor in the §8.1 breakdown cycle — a maximally-different but valid
   optimization set to recompute under *)
let next_options options =
  let variants = List.map snd Options.breakdown in
  let rec succ = function
    | o :: rest when o = options -> (
        match rest with o' :: _ -> o' | [] -> List.hd variants)
    | _ :: rest -> succ rest
    | [] -> List.hd variants
  in
  succ variants

let metamorphic (case : Case.t) ~a ~b ~c0 ~cref ~csim =
  let spec = case.Case.spec in
  (* (a) pass-toggle equivalence: a different optimization set must land
     on the same numbers *)
  let options' = next_options case.Case.options in
  let* compiled' = compile_case case ~options:options' in
  let* csim' = simulate compiled' ~a ~b ~c0 in
  let* () =
    compare_batches ~stage:"metamorphic-options"
      ~what:(Printf.sprintf "recompilation under %s" (Options.name options'))
      cref csim'
  in
  match spec.Spec.fusion with
  | Spec.Epilogue fn ->
      (* (b) fusion on/off: fused result = fn(unfused result) *)
      let case_nf =
        { case with Case.spec = { spec with Spec.fusion = Spec.No_fusion } }
      in
      let* compiled_nf = compile_case case_nf ~options:case.Case.options in
      let* cnf = simulate compiled_nf ~a ~b ~c0 in
      let f = Sw_kernels.Elementwise.reference fn in
      let expect = Array.map (Matrix.map f) cnf in
      compare_batches ~stage:"metamorphic-epilogue"
        ~what:(Printf.sprintf "epilogue %s vs unfused + map" fn)
        expect csim
  | Spec.No_fusion ->
      (* (c) alpha-scaling identity: C(2a) = 2 C(a) - beta C0 *)
      let case2 =
        {
          case with
          Case.spec = { spec with Spec.alpha = 2.0 *. spec.Spec.alpha };
        }
      in
      let* compiled2 = compile_case case2 ~options:case.Case.options in
      let* c2 = simulate compiled2 ~a ~b ~c0 in
      let beta = spec.Spec.beta in
      let expect =
        Array.mapi
          (fun i (c1 : Matrix.t) ->
            Matrix.init ~rows:c1.Matrix.rows ~cols:c1.Matrix.cols
              ~f:(fun r c ->
                (2.0 *. Matrix.get c1 r c) -. (beta *. Matrix.get c0.(i) r c)))
          csim
      in
      compare_batches ~stage:"metamorphic-alpha" ~what:"alpha-scaling identity"
        expect c2
  | Spec.Prologue _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Clean and faulted checks                                             *)
(* ------------------------------------------------------------------ *)

let check_clean (case : Case.t) =
  let spec = case.Case.spec in
  let a, b, c0 = inputs spec ~seed:case.Case.data_seed in
  let cref = reference spec ~a ~b ~c0 in
  let* () = exec_route spec ~a ~b ~c0 ~cref in
  let* compiled = compile_case case ~options:case.Case.options in
  let* csim = simulate compiled ~a ~b ~c0 in
  let* () =
    compare_batches ~stage:"sim-vs-ref" ~what:"simulated cluster" cref csim
  in
  let* () = metamorphic case ~a ~b ~c0 ~cref ~csim in
  let feature = Feature.of_compiled compiled in
  Ok { feature; key = Feature.to_key feature; recovery = None; fault_stats = [] }

let check_fault (case : Case.t) ~fseed ~kinds =
  let* compiled = compile_case case ~options:case.Case.options in
  let fspec =
    match kinds with
    | None -> Sw_arch.Fault.default_spec
    | Some ks -> Sw_arch.Fault.spec_with ~kinds:ks Sw_arch.Fault.default_spec
  in
  let plan = Sw_arch.Fault.plan ~spec:fspec ~seed:fseed () in
  let flips_enabled = List.mem Sw_arch.Fault.Flip fspec.Sw_arch.Fault.kinds in
  let conclude recovery =
    let feature = Feature.of_compiled compiled in
    let stats = Sw_arch.Fault.stats plan in
    let kinds_hit =
      String.concat "+"
        (List.map (fun (k, _) -> Sw_arch.Fault.kind_to_string k) stats)
    in
    let key =
      Printf.sprintf "%s/fault=%s/%s" (Feature.to_key feature)
        (if kinds_hit = "" then "none" else kinds_hit)
        recovery
    in
    Ok { feature; key; recovery = Some recovery; fault_stats = stats }
  in
  match
    Runner.verify_resilient ~seed:case.Case.data_seed ~faults:plan ~watchdog
      compiled
  with
  | Ok r -> conclude (Runner.recovery_to_string r.Runner.recovery)
  | Error (Runner.Sim (Sw_arch.Error.Watchdog _)) ->
      (* the event budget tripped: the run would have hung *)
      fail "fault-contract" "simulation hung under injection (watchdog)"
  | Error (Runner.Sim e) ->
      (* a typed failure is an acceptable conclusion under faults *)
      conclude
        (Printf.sprintf "typed-error:%s"
           (* historical hyphenated key, predating Error.class_of; the
              committed corpus stores coverage keys built from it *)
           (match e with
           | Sw_arch.Error.Fault_exhausted _ -> "fault-exhausted"
           | e -> Sw_arch.Error.class_of e))
  | Error (Runner.Mismatch _) when flips_enabled ->
      (* a detected divergence is the expected outcome of an SPM flip *)
      conclude "detected-corruption"
  | Error (Runner.Mismatch _ as e) ->
      fail "fault-contract" "silent corruption without flips enabled: %s"
        (Runner.error_to_string e)

let check (case : Case.t) =
  match case.Case.fault with
  | None -> check_clean case
  | Some (fseed, kinds) -> check_fault case ~fseed ~kinds

(* ------------------------------------------------------------------ *)
(* GEMV three-way oracle                                                *)
(* ------------------------------------------------------------------ *)

let check_gemv ~m ~n ~alpha ~beta ~seed =
  let gspec = Gemv.make_spec ~alpha ~beta ~m ~n () in
  let config = Sw_arch.Config.tiny () in
  match Gemv.compile ~config gspec with
  | exception Gemv.Gemv_error e -> fail "gemv-compile" "%s" e
  | compiled -> (
      let a = Matrix.random ~rows:m ~cols:n ~seed:(seed + Hashtbl.hash "A") in
      let x = Matrix.random ~rows:n ~cols:1 ~seed:(seed + Hashtbl.hash "x") in
      let y0 = Matrix.random ~rows:m ~cols:1 ~seed:(seed + Hashtbl.hash "y") in
      let yref = Matrix.copy y0 in
      Dgemm.gemm ~alpha ~beta ~a ~b:x ~c:yref;
      (* route 1: direct interpretation *)
      let src = Csrc.render_gemv ~m ~n in
      match F.Parser.parse src with
      | exception F.Parser.Parse_error e ->
          fail "gemv-exec" "rendered source rejected by the parser: %s" e
      | func -> (
          let fy = Matrix.copy y0 in
          match
            F.Exec.run
              ~fbindings:[ ("alpha", alpha); ("beta", beta) ]
              func
              ~arrays:[ ("A", Matrix.copy a); ("x", Matrix.copy x); ("y", fy) ]
          with
          | exception F.Exec.Exec_error e ->
              fail "gemv-exec" "direct interpretation failed: %s" e
          | () ->
              let* () =
                compare_batches ~stage:"gemv-exec-vs-ref"
                  ~what:"direct interpretation" [| yref |] [| fy |]
              in
              (* route 2: the all-broadcast program on the cluster *)
              let vm = compiled.Gemv.spec.Gemv.vm
              and vn = compiled.Gemv.spec.Gemv.vn in
              let mem = Sw_arch.Mem.create () in
              install_padded mem "A" [| a |] ~batched:false ~rows:vm ~cols:vn;
              install_padded mem "x" [| x |] ~batched:false ~rows:vn ~cols:1;
              install_padded mem "y" [| y0 |] ~batched:false ~rows:vm ~cols:1;
              (match
                 Sw_arch.Interp.run ~watchdog ~config ~functional:true ~mem
                   compiled.Gemv.program
               with
              | Error e ->
                  fail "gemv-simulate" "%s" (Sw_arch.Error.to_string e)
              | Ok _ ->
                  let data = Sw_arch.Mem.data mem "y" in
                  let got =
                    Matrix.init ~rows:m ~cols:1 ~f:(fun i _ -> data.(i))
                  in
                  compare_batches ~stage:"gemv-sim-vs-ref"
                    ~what:"simulated cluster" [| yref |] [| got |])))
