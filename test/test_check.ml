(* Conformance-engine suite: the three-way differential oracle of
   lib/check exercised as a test-time library — fixed fusion/GEMV cases
   beyond the unit-level checks, randomized agreement properties, the
   fault contract, corpus/repro round-trips, and a planted-bug
   (sabotage) catch with shrinking and replay. *)

open Sw_core
module Check = Sw_check
module Oracle = Sw_check.Oracle

let qtest = Helpers.qtest

let mk ?batch ?(alpha = 1.0) ?(beta = 1.0) ?(ta = false) ?(tb = false)
    ?(fusion = Spec.No_fusion) ?(options = Options.all_on)
    ?(config = "tiny2") ?(data_seed = 7) ?fault m n k =
  {
    Check.Case.spec =
      Spec.make ?batch ~alpha ~beta ~ta ~tb ~fusion ~m ~n ~k ();
    options;
    config;
    data_seed;
    fault;
  }

let expect_ok what case =
  match Oracle.check case with
  | Ok _ -> ()
  | Error (f : Oracle.failure) ->
      Alcotest.failf "%s: %s: %s" what f.Oracle.stage f.Oracle.detail

(* ------------------------------------------------------------------ *)
(* Satellite coverage: fusion epilogues and GEMV through the oracle     *)
(* ------------------------------------------------------------------ *)

(* Every element-wise epilogue, on a ragged shape with non-trivial
   scalars, plus a batched + transposed combination: each case runs the
   direct C interpretation, the generated code on the simulated cluster,
   the BLAS reference, AND the epilogue metamorphic relation
   (fused = fn(unfused)). *)
let test_epilogue_paths () =
  List.iter
    (fun fn ->
      expect_ok ("epilogue " ^ fn)
        (mk ~alpha:1.5 ~beta:0.5 ~fusion:(Spec.Epilogue fn) 10 9 8))
    [ "relu"; "tanh"; "sigmoid"; "id" ];
  expect_ok "batched transposed epilogue"
    (mk ~batch:2 ~ta:true ~beta:0.0 ~fusion:(Spec.Epilogue "relu")
       ~config:"tiny4" 12 8 8)

(* The same fixed GEMM agrees through all three routes on every mesh
   geometry of the conformance matrix, including the asymmetric 8x4, and
   on 1x1, 1xN, Nx1 and 3x3 tiny meshes named by config id. *)
let test_arch_matrix_oracle () =
  List.iter
    (fun preset ->
      expect_ok ("arch " ^ preset)
        (mk ~alpha:1.5 ~beta:0.5 ~config:preset 24 20 16);
      expect_ok ("arch ragged " ^ preset)
        (mk ~ta:true ~fusion:(Spec.Epilogue "relu") ~config:preset 19 13 9))
    [
      "tiny2";
      "tiny4";
      "tiny-8x4";
      "tiny-8x8";
      "tiny-16x16";
      "tiny-1x1@2x2x2";
      "tiny-1x3";
      "tiny-3x1@2x4x2";
      "tiny-3x3@4x2x2";
    ]

let test_prologue_path () =
  expect_ok "prologue quant"
    (mk ~alpha:2.0 ~fusion:(Spec.Prologue "quant") 8 8 8);
  expect_ok "batched prologue id"
    (mk ~batch:3 ~tb:true ~fusion:(Spec.Prologue "id") 7 11 4)

let gemv_agrees =
  qtest ~count:10 "GEMV: all three routes agree"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x47454D56 |] in
      let m = 1 + Random.State.int st 40 in
      let n = 1 + Random.State.int st 40 in
      let alpha = [| 1.0; 2.0; 0.5; -1.0 |].(Random.State.int st 4) in
      let beta = [| 1.0; 0.0; 2.0; -0.5 |].(Random.State.int st 4) in
      match Oracle.check_gemv ~m ~n ~alpha ~beta ~seed with
      | Ok () -> true
      | Error (f : Oracle.failure) ->
          QCheck.Test.fail_reportf "gemv %dx%d a=%g b=%g: %s: %s" m n alpha
            beta f.Oracle.stage f.Oracle.detail)

(* ------------------------------------------------------------------ *)
(* Randomized agreement and the fault contract                          *)
(* ------------------------------------------------------------------ *)

let random_cases_agree =
  qtest ~count:6 "random generated cases: three routes agree"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x53774343 |] in
      let case = Check.Gen.generate st ~id:0 ~corpus:[] ~fault:None in
      match Oracle.check case with
      | Ok _ -> true
      | Error (f : Oracle.failure) ->
          QCheck.Test.fail_reportf "%s: %s: %s"
            (Check.Case.to_string case)
            f.Oracle.stage f.Oracle.detail)

(* Whether a run moves data must not change its simulated seconds: a
   fault-free functional run and the timing run agree bit for bit. QCheck
   shrinks a counterexample with the fuzzer's own shrinker and prints it as
   the case JSON a test/corpus file holds. *)
let functional_seconds_equal_timing =
  let arb =
    QCheck.make
      ~print:(fun c -> Sw_obs.Json.to_string (Check.Case.to_json c))
      ~shrink:(fun c -> QCheck.Iter.of_list (Check.Gen.shrink_candidates c))
      (fun st -> Check.Gen.generate st ~id:0 ~corpus:[] ~fault:None)
  in
  qtest ~count:20 "functional seconds = timing seconds, bit for bit" arb
    (fun (case : Check.Case.t) ->
      let compiled =
        Helpers.compile_exn ~options:case.Check.Case.options
          ~config:(Check.Case.config_of case.Check.Case.config)
          case.Check.Case.spec
      in
      match Runner.verify_resilient ~seed:case.Check.Case.data_seed compiled with
      | Error e -> QCheck.Test.fail_report (Runner.error_to_string e)
      | Ok r ->
          Int64.equal
            (Int64.bits_of_float r.Runner.seconds)
            (Int64.bits_of_float (Runner.measure_exact compiled).Runner.seconds))

(* Under injection (flips excluded) the oracle must conclude match or
   typed error — watchdog expiry and silent corruption are failures. *)
let fault_contract_holds =
  qtest ~count:4 "faulted cases: match or typed error, never hang"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x53774646 |] in
      let kinds =
        [
          Sw_arch.Fault.Jitter;
          Sw_arch.Fault.Stall;
          Sw_arch.Fault.Delay_reply;
          Sw_arch.Fault.Drop_reply;
          Sw_arch.Fault.Straggler;
        ]
      in
      let base = Check.Gen.generate st ~id:0 ~corpus:[] ~fault:None in
      let case = { base with Check.Case.fault = Some (seed, Some kinds) } in
      match Oracle.check case with
      | Ok (r : Oracle.report) -> r.Oracle.recovery <> None
      | Error (f : Oracle.failure) ->
          QCheck.Test.fail_reportf "%s: %s: %s"
            (Check.Case.to_string case)
            f.Oracle.stage f.Oracle.detail)

(* ------------------------------------------------------------------ *)
(* Corpus, repro files, shrinking                                       *)
(* ------------------------------------------------------------------ *)

let case_json_roundtrip =
  qtest ~count:50 "Case JSON round-trips through the strict parser"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x534A534E |] in
      let base = Check.Gen.generate st ~id:0 ~corpus:[] ~fault:None in
      let case =
        if Random.State.bool st then
          { base with Check.Case.fault = Some (seed, None) }
        else base
      in
      let text = Sw_obs.Json.to_string (Check.Case.to_json case) in
      match Sw_obs.Json.parse text with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok j -> (
          match Check.Case.of_json j with
          | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e
          | Ok case' ->
              case' = case
              || QCheck.Test.fail_reportf "round-trip changed the case: %s -> %s"
                   (Check.Case.to_string case)
                   (Check.Case.to_string case')))

let test_repro_roundtrip () =
  let dir = Filename.temp_dir "swcheck" "repro" in
  let original = mk ~batch:2 ~ta:true ~fusion:(Spec.Epilogue "tanh") 9 7 5 in
  let shrunk = mk 1 1 1 in
  let path =
    Check.Corpus.write_repro ~dir ~sabotage:(Some "strip_mine") ~original
      ~shrunk ~stage:"sim-vs-ref" ~detail:"planted"
  in
  (match Check.Corpus.read_repro path with
  | Error e -> Alcotest.failf "read_repro: %s" e
  | Ok (sabotage, case) ->
      Alcotest.(check (option string))
        "sabotage preserved" (Some "strip_mine") sabotage;
      if case <> shrunk then Alcotest.fail "repro case differs from shrunk");
  Sys.remove path;
  Sys.rmdir dir

(* Shrink candidates strictly reduce a well-founded weight, so greedy
   shrinking always terminates. *)
let shrink_terminates =
  qtest ~count:60 "shrink candidates strictly decrease a weight"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x53485253 |] in
      let weight (c : Check.Case.t) =
        let s = c.Check.Case.spec in
        s.Spec.m + s.Spec.n + s.Spec.k
        + (match s.Spec.batch with Some b -> b | None -> 0)
        + (if s.Spec.ta then 1 else 0)
        + (if s.Spec.tb then 1 else 0)
        + (if s.Spec.fusion <> Spec.No_fusion then 1 else 0)
        + (if s.Spec.alpha <> 1.0 then 1 else 0)
        + if s.Spec.beta <> 1.0 then 1 else 0
      in
      let case = Check.Gen.generate st ~id:0 ~corpus:[] ~fault:None in
      let w = weight case in
      List.for_all
        (fun c -> weight c < w)
        (Check.Gen.shrink_candidates case))

(* ------------------------------------------------------------------ *)
(* Sabotage: the fuzzer catches a planted compiler bug                  *)
(* ------------------------------------------------------------------ *)

(* An aligned shape whose reduction loop actually strip-mines: the
   deliberate off-by-one factor must produce a disagreement. *)
let test_sabotage_caught () =
  Pass.set_sabotage (Some "strip_mine");
  Fun.protect
    ~finally:(fun () -> Pass.set_sabotage None)
    (fun () ->
      match Oracle.check (mk 8 8 8) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "sabotaged strip-mine escaped the oracle")

(* End-to-end: a small sabotaged campaign records the disagreement,
   shrinks it, writes a repro file, and the repro replays. *)
let test_sabotage_shrunk_and_replayed () =
  let dir = Filename.temp_dir "swcheck" "campaign" in
  let summary =
    Check.Fuzz.run
      {
        Check.Fuzz.cases = 3;
        seed = 5;
        jobs = 1;
        archs = None;
        fault = None;
        corpus_dir = None;
        repro_dir = dir;
        max_shrink = 12;
        sabotage = Some "strip_mine";
        print = ignore;
      }
  in
  (match summary.Check.Fuzz.disagreements with
  | [] -> Alcotest.fail "sabotaged campaign reported no disagreement"
  | (d : Check.Fuzz.failure_record) :: _ -> (
      match Check.Fuzz.replay ~print:ignore d.Check.Fuzz.repro with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "repro file did not reproduce"
      | Error e -> Alcotest.failf "replay: %s" e));
  Pass.set_sabotage None;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Determinism of the driver itself                                     *)
(* ------------------------------------------------------------------ *)

let campaign settings_print =
  Check.Fuzz.run
    {
      Check.Fuzz.cases = 3;
      seed = 11;
      jobs = 1;
      archs = None;
      fault = None;
      corpus_dir = None;
      repro_dir = Filename.get_temp_dir_name ();
      max_shrink = 0;
      sabotage = None;
      print = settings_print;
    }

let test_campaign_deterministic () =
  let capture () =
    let buf = Buffer.create 256 in
    let summary =
      campaign (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
    in
    (Buffer.contents buf, summary.Check.Fuzz.novel)
  in
  let out1, novel1 = capture () in
  let out2, novel2 = capture () in
  Alcotest.(check string) "identical per-case log" out1 out2;
  Alcotest.(check int) "identical novel-coverage count" novel1 novel2

(* The config-id grammar: registry names and aliases resolve first, any
   other tiny-RxC is Config.tiny on that mesh, and @MxNxK overrides the
   micro kernel; a bad id is rejected, never raised. *)
let test_config_ids () =
  List.iter
    (fun (id, name, mesh, mk) ->
      match Check.Case.config_id_of_string id with
      | None -> Alcotest.failf "%s rejected" id
      | Some id ->
          let c = Check.Case.config_of id in
          Alcotest.(check (triple string (pair int int) (triple int int int)))
            id (name, mesh, mk)
            ( c.Sw_arch.Config.name,
              (c.Sw_arch.Config.mesh_rows, c.Sw_arch.Config.mesh_cols),
              (c.Sw_arch.Config.mk_m, c.Sw_arch.Config.mk_n,
               c.Sw_arch.Config.mk_k) ))
    [
      ("tiny2", "tiny2", (2, 2), (4, 4, 2));
      ("tiny-2x2", "tiny2", (2, 2), (4, 4, 2));
      ("tiny4@8x8x4", "tiny4", (4, 4), (8, 8, 4));
      ("tiny-1x3", "tiny-1x3", (1, 3), (4, 4, 2));
      ("tiny-3x2@2x4x2", "tiny-3x2", (3, 2), (2, 4, 2));
    ];
  List.iter
    (fun id ->
      Alcotest.(check (option string)) id None
        (Check.Case.config_id_of_string id))
    [
      "tiny-0x3";
      "tiny-2x";
      "tiny-2x3@0x2x2";
      "tiny-2x3@2x2";
      "nope";
      "tiny-0x2x3";
      (* overflows the 16 KiB SPM: Config.validate rejects it *)
      "tiny4@64x64x32";
    ]

(* The first 64 cases a seed-1 campaign draws, for the default pool and
   the four-geometry pool, digested. A change to the size draw moves
   every seeded campaign — CI's byte-compared fuzz runs and the
   fuzz_conformance benchmark among them — and fails here by name. *)
let test_draw_pinned () =
  let digest archs =
    let master = Random.State.make [| 1; 0x53774747 |] in
    List.init 64 (fun id ->
        Check.Case.to_string
          (Check.Gen.generate ?archs (Random.State.split master) ~id
             ~corpus:[] ~fault:None))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "default pool" "769476293b2c525b7bf7ebef8084db84"
    (digest None);
  Alcotest.(check string) "four-geometry pool"
    "bbbab533528e6eb7ffb6c93083f5bd5b"
    (digest (Some [| "tiny-8x8"; "tiny4"; "tiny-8x4"; "tiny-16x16" |]))

let tests =
  [
    Alcotest.test_case "epilogue fusion paths (3-way + metamorphic)" `Quick
      test_epilogue_paths;
    Alcotest.test_case "prologue fusion paths (3-way)" `Quick
      test_prologue_path;
    Alcotest.test_case "arch matrix: oracle agrees on every mesh geometry"
      `Quick test_arch_matrix_oracle;
    gemv_agrees;
    random_cases_agree;
    functional_seconds_equal_timing;
    fault_contract_holds;
    case_json_roundtrip;
    Alcotest.test_case "repro file round-trip" `Quick test_repro_roundtrip;
    shrink_terminates;
    Alcotest.test_case "planted strip-mine bug is caught" `Quick
      test_sabotage_caught;
    Alcotest.test_case "sabotaged campaign shrinks and replays" `Quick
      test_sabotage_shrunk_and_replayed;
    Alcotest.test_case "campaign output is deterministic" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "config ids: presets, tiny-RxC and @MxNxK" `Quick
      test_config_ids;
    Alcotest.test_case "default size draw is pinned" `Quick test_draw_pinned;
  ]
