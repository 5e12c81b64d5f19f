(* Tests of the autotuner (lib/tune): search determinism across --jobs,
   analytic-pruning soundness on an exhaustive space, tuned-never-loses,
   tuning-DB record round-trips and durability (torn writes quarantined,
   stale schema generations invalidated), warm-DB zero-measurement serving,
   and the Session tuned-lookup hook. *)

open Sw_core
open Sw_arch
open Sw_tune

let check = Alcotest.check
let qtest = Helpers.qtest

let tiny = Config.tiny ()

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swgemm-test-tune.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let flip_byte ?(pos_from_end = 1) path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string raw in
  let i = Bytes.length b - pos_from_end in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let spec64 = Spec.make ~m:64 ~n:64 ~k:64 ()

let run_ok ?budget ?jobs ?db ~config spec =
  match Search.run ?budget ?jobs ?db ~config spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "Search.run: %s" e

(* ------------------------------------------------------------------ *)
(* The space                                                            *)
(* ------------------------------------------------------------------ *)

let test_space_contains_default () =
  let cands = Space.enumerate ~config:tiny ~spec:spec64 in
  let default = Space.default tiny spec64 in
  Alcotest.(check bool)
    "default is enumerated" true
    (List.exists (fun c -> c = default) cands);
  let keys = List.map Space.key cands in
  check
    Alcotest.(list string)
    "sorted and duplicate-free" (List.sort_uniq compare keys) keys

let test_realize_prices_without_unrolling () =
  (* realizing the whole sw26010pro space of a 2048^3 GEMM prices each
     generated kernel from its register blocking: building the unrolled
     bodies took 13.8 M minor words *)
  let config = Config.sw26010pro and spec = Spec.make ~m:2048 ~n:2048 ~k:2048 () in
  let cands = Space.enumerate ~config ~spec in
  let before = Gc.minor_words () in
  let realized =
    List.filter (fun c -> Result.is_ok (Space.realize ~config ~spec c)) cands
  in
  let words = Gc.minor_words () -. before in
  check Alcotest.int "candidates" 117 (List.length cands);
  Alcotest.(check bool) "some realize" true (realized <> []);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words under 1 M" words)
    true (words < 1e6)

let test_space_fusion_facet () =
  let fused =
    Spec.make ~m:32 ~n:32 ~k:32 ~fusion:(Spec.Epilogue "relu") ()
  in
  let with_split =
    List.filter
      (fun c -> not c.Space.fuse)
      (Space.enumerate ~config:tiny ~spec:fused)
  in
  Alcotest.(check bool)
    "fused specs enumerate split placement" true (with_split <> []);
  let unfused_split =
    List.filter
      (fun c -> not c.Space.fuse)
      (Space.enumerate ~config:tiny ~spec:spec64)
  in
  check Alcotest.int "unfused specs never split" 0 (List.length unfused_split)

(* ------------------------------------------------------------------ *)
(* Determinism: the --jobs invariance contract                          *)
(* ------------------------------------------------------------------ *)

let entry_to_string (e : Search.entry) =
  Space.key e.Search.candidate
  ^ " => "
  ^
  match e.Search.verdict with
  | Search.Measured g -> Printf.sprintf "measured %.9f" g
  | Search.Legality r -> "legality " ^ r
  | Search.Bound_pruned { bound; best } ->
      Printf.sprintf "bound %.9f best %.9f" bound best
  | Search.Budget_pruned { bound } -> Printf.sprintf "budget %.9f" bound
  | Search.Failed r -> "failed " ^ r

let db_image dir =
  let db = Tune_db.open_ ~dir () in
  String.concat "\n"
    (List.map
       (fun r -> Sw_obs.Json.to_string (Tune_db.record_to_json r))
       (Tune_db.records db))

let test_jobs_invariance () =
  with_dir @@ fun dir1 ->
  with_dir @@ fun dir4 ->
  let outcome jobs dir =
    let db = Tune_db.open_ ~dir () in
    run_ok ~budget:8 ~jobs ~db ~config:tiny spec64
  in
  let o1 = outcome 1 dir1 and o4 = outcome 4 dir4 in
  check Alcotest.string "same winner" (Space.key o1.Search.winner)
    (Space.key o4.Search.winner);
  Helpers.check_close "same winner gflops" o1.Search.gflops o4.Search.gflops;
  Helpers.check_close "same default gflops" o1.Search.default_gflops
    o4.Search.default_gflops;
  check Alcotest.int "same measurement count" o1.Search.measurements
    o4.Search.measurements;
  check
    Alcotest.(list string)
    "byte-identical audit trail"
    (List.map entry_to_string o1.Search.entries)
    (List.map entry_to_string o4.Search.entries);
  check Alcotest.string "byte-identical DB contents" (db_image dir1)
    (db_image dir4)

(* ------------------------------------------------------------------ *)
(* Soundness: no pruned candidate ever beats the measured winner        *)
(* ------------------------------------------------------------------ *)

(* Small exhaustive space: give the search enough budget to either
   measure or bound-prune everything, then force-measure every pruned
   candidate and check none lands above the winner. This is the contract
   that makes analytic pruning admissible rather than a heuristic. *)
let test_pruning_soundness () =
  let spec = Spec.make ~m:32 ~n:32 ~k:32 () in
  let o = run_ok ~budget:1000 ~config:tiny spec in
  let eps = 1e-6 *. Float.max 1.0 o.Search.gflops in
  List.iter
    (fun (e : Search.entry) ->
      match e.Search.verdict with
      | Search.Bound_pruned { bound; _ } | Search.Budget_pruned { bound } -> (
          match Search.measure ~config:tiny ~spec e.Search.candidate with
          | Error _ -> ()
          | Ok g ->
              if g > bound +. eps then
                Alcotest.failf "bound unsound for %s: measured %.6f > bound %.6f"
                  (Space.key e.Search.candidate)
                  g bound;
              if g > o.Search.gflops +. eps then
                Alcotest.failf
                  "pruned candidate %s (%.6f Gflops) beats winner %s (%.6f)"
                  (Space.key e.Search.candidate)
                  g
                  (Space.key o.Search.winner)
                  o.Search.gflops)
      | _ -> ())
    o.Search.entries

let tuned_never_loses =
  qtest ~count:6 "tuned config never loses to the paper default"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x54554E45 |] in
      let dim () = 8 * (1 + Random.State.int st 12) in
      let fusion =
        match Random.State.int st 3 with
        | 0 -> Spec.No_fusion
        | 1 -> Spec.Epilogue "relu"
        | _ -> Spec.Prologue "id"
      in
      let spec = Spec.make ~m:(dim ()) ~n:(dim ()) ~k:(dim ()) ~fusion () in
      match Search.run ~budget:6 ~config:tiny spec with
      | Error e -> QCheck.Test.fail_reportf "search failed: %s" e
      | Ok o ->
          if o.Search.gflops +. 1e-9 < o.Search.default_gflops then
            QCheck.Test.fail_reportf
              "%s: tuned %.6f < default %.6f" (Spec.to_string spec)
              o.Search.gflops o.Search.default_gflops
          else true)

(* ------------------------------------------------------------------ *)
(* Tuning-DB: round-trip and durability                                 *)
(* ------------------------------------------------------------------ *)

let record_gen =
  QCheck.make (fun st ->
      let dim () = 1 + Random.State.int st 128 in
      {
        Tune_db.shape_class =
          Printf.sprintf "m%d:n%d:k%d:b1:tNN:f=none" (dim ()) (dim ()) (dim ());
        mesh_class = Printf.sprintf "%dx%d/test" (dim ()) (dim ());
        winner =
          {
            Space.mk = (dim (), dim (), dim ());
            strip = 1 + Random.State.int st 8;
            buffers = 1 + Random.State.int st 3;
            fuse = Random.State.bool st;
          };
        gflops = Random.State.float st 2000.0;
        default_gflops = Random.State.float st 2000.0;
        measured = Random.State.int st 100;
        pruned = Random.State.int st 1000;
      })

let record_json_roundtrip =
  qtest ~count:100 "tune record JSON round-trip" record_gen (fun r ->
      match Tune_db.record_of_json (Tune_db.record_to_json r) with
      | Ok r' when r' = r -> true
      | Ok _ -> QCheck.Test.fail_reportf "round-trip changed the record"
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let object_files dir =
  let objects = Filename.concat dir "objects" in
  if not (Sys.file_exists objects) then []
  else
    Array.to_list (Sys.readdir objects)
    |> List.concat_map (fun shard ->
           let sd = Filename.concat objects shard in
           if Sys.is_directory sd then
             List.map (Filename.concat sd) (Array.to_list (Sys.readdir sd))
           else [])

let seed_db dir =
  let db = Tune_db.open_ ~dir () in
  let o = run_ok ~budget:4 ~db ~config:tiny spec64 in
  (db, o)

let test_db_find_roundtrip () =
  with_dir @@ fun dir ->
  let _db, o = seed_db dir in
  let db = Tune_db.open_ ~dir () in
  match Tune_db.find db ~spec:spec64 ~config:tiny with
  | None -> Alcotest.fail "no record after put"
  | Some r ->
      check Alcotest.string "winner persisted" (Space.key o.Search.winner)
        (Space.key r.Tune_db.winner);
      Helpers.check_close "gflops persisted" o.Search.gflops r.Tune_db.gflops;
      (* the class key generalizes: any spec of the same shape class hits *)
      let sibling = Spec.make ~m:63 ~n:50 ~k:40 () in
      Alcotest.(check bool)
        "same shape class hits" true
        (Tune_db.find db ~spec:sibling ~config:tiny <> None);
      let other = Spec.make ~m:256 ~n:256 ~k:256 () in
      Alcotest.(check bool)
        "different shape class misses" true
        (Tune_db.find db ~spec:other ~config:tiny = None)

let test_db_corruption_quarantined () =
  with_dir @@ fun dir ->
  ignore (seed_db dir);
  (match object_files dir with
  | [ path ] -> flip_byte path
  | files -> Alcotest.failf "expected 1 object file, found %d" (List.length files));
  let db = Tune_db.open_ ~dir () in
  Alcotest.(check bool)
    "corrupt record reads as a miss" true
    (Tune_db.find db ~spec:spec64 ~config:tiny = None);
  let s = Tune_db.stats db in
  Alcotest.(check bool) "quarantined" true (s.Sw_host.Store.quarantined >= 1);
  check Alcotest.int "never served corrupt" 0 s.Sw_host.Store.served_corrupt;
  (* the next search simply rewrites the class *)
  let o = run_ok ~budget:4 ~db ~config:tiny spec64 in
  Alcotest.(check bool) "re-search measured" true (o.Search.measurements > 0);
  Alcotest.(check bool)
    "record restored" true
    (Tune_db.find db ~spec:spec64 ~config:tiny <> None)

let test_db_stale_schema_invalidated () =
  with_dir @@ fun dir ->
  (* write a well-formed record under a previous schema generation *)
  let old = Sw_host.Store.open_ ~schema:"swgemm-tune-v0" ~dir () in
  Sw_host.Store.put old
    ~key:(Tune_db.key ~spec:spec64 ~config:tiny)
    "{\"any\":\"payload\"}";
  Sw_host.Store.flush old;
  let db = Tune_db.open_ ~dir () in
  Alcotest.(check bool)
    "stale generation is invisible" true
    (Tune_db.find db ~spec:spec64 ~config:tiny = None);
  let s = Tune_db.stats db in
  check Alcotest.int "stale, not quarantined" 0 s.Sw_host.Store.quarantined

let test_db_mismatched_classes_rejected () =
  with_dir @@ fun dir ->
  (* a well-formed record stored under the right key but whose embedded
     classes claim a different (shape, mesh) is validated away, not
     served: the key is content-addressed, so a record that disagrees
     with its own address is a write gone wrong *)
  let bogus =
    {
      Tune_db.shape_class = "m1:n1:k1:b1:tNN:f=none";
      mesh_class = "1x1/other";
      winner = Space.default tiny spec64;
      gflops = 1.0;
      default_gflops = 1.0;
      measured = 1;
      pruned = 0;
    }
  in
  let raw = Sw_host.Store.open_ ~schema:Tune_db.schema ~dir () in
  Sw_host.Store.put raw
    ~key:(Tune_db.key ~spec:spec64 ~config:tiny)
    (Sw_obs.Json.to_string (Tune_db.record_to_json bogus));
  Sw_host.Store.flush raw;
  let db = Tune_db.open_ ~dir () in
  Alcotest.(check bool)
    "mismatched classes read as a miss" true
    (Tune_db.find db ~spec:spec64 ~config:tiny = None)

(* ------------------------------------------------------------------ *)
(* Warm DB: repeat traffic costs zero measurements                      *)
(* ------------------------------------------------------------------ *)

let test_warm_db_zero_measurements () =
  with_dir @@ fun dir ->
  let db, cold = seed_db dir in
  Alcotest.(check bool)
    "cold search measured" true
    (cold.Search.measurements > 0);
  Alcotest.(check bool) "cold not from DB" false cold.Search.from_db;
  let hits_before = (Tune_db.stats db).Sw_host.Store.hits in
  let warm = run_ok ~budget:4 ~db ~config:tiny spec64 in
  Alcotest.(check bool) "warm from DB" true warm.Search.from_db;
  check Alcotest.int "warm zero measurements" 0 warm.Search.measurements;
  check Alcotest.string "warm same winner" (Space.key cold.Search.winner)
    (Space.key warm.Search.winner);
  Alcotest.(check bool)
    "store hit counted" true
    ((Tune_db.stats db).Sw_host.Store.hits > hits_before)

(* ------------------------------------------------------------------ *)
(* Session integration: the tuned lookup hook                           *)
(* ------------------------------------------------------------------ *)

let test_session_tuned_hook () =
  with_dir @@ fun dir ->
  let db, o = seed_db dir in
  let hook = Search.session_hook ~db ~config:tiny in
  (match hook spec64 with
  | None -> Alcotest.fail "hook missed a recorded class"
  | Some (cfg, options) ->
      let wm, wn, wk = o.Search.winner.Space.mk in
      check Alcotest.int "tuned mk_m" wm cfg.Config.mk_m;
      check Alcotest.int "tuned mk_n" wn cfg.Config.mk_n;
      check Alcotest.int "tuned mk_k" wk cfg.Config.mk_k;
      Alcotest.(check bool)
        "options legal" true
        (Result.is_ok (Options.validate options)));
  (* an unknown class falls through to the session's own model *)
  let far = Spec.make ~m:512 ~n:512 ~k:512 () in
  Alcotest.(check bool) "unknown class -> None" true (hook far = None);
  (* end to end: a session with the hook compiles under the winner *)
  let session =
    {
      (Session.create ~no_cache:true ~arch:tiny ()) with
      Session.tuned = Some hook;
    }
  in
  let compiled = Compile.run_exn session spec64 in
  let wm, wn, wk = o.Search.winner.Space.mk in
  check Alcotest.int "compiled with tuned mk_m" wm
    compiled.Compile.config.Config.mk_m;
  check Alcotest.int "compiled with tuned mk_n" wn
    compiled.Compile.config.Config.mk_n;
  check Alcotest.int "compiled with tuned mk_k" wk
    compiled.Compile.config.Config.mk_k;
  (* the untuned session still compiles under its own model *)
  let plain = Compile.run_exn (Session.create ~no_cache:true ~arch:tiny ()) spec64 in
  check Alcotest.int "untuned keeps preset mk_m" tiny.Config.mk_m
    plain.Compile.config.Config.mk_m

let tests =
  [
    Alcotest.test_case "space: default enumerated, keys sorted unique" `Quick
      test_space_contains_default;
    Alcotest.test_case "space: fusion facet only for fused specs" `Quick
      test_space_fusion_facet;
    Alcotest.test_case "space: realize prices kernels without unrolling" `Quick
      test_realize_prices_without_unrolling;
    Alcotest.test_case "search is --jobs invariant (winner, trail, DB)" `Slow
      test_jobs_invariance;
    Alcotest.test_case "analytic pruning is sound (exhaustive space)" `Slow
      test_pruning_soundness;
    tuned_never_loses;
    record_json_roundtrip;
    Alcotest.test_case "DB round-trip and shape-class generalization" `Quick
      test_db_find_roundtrip;
    Alcotest.test_case "torn record quarantined, never served" `Quick
      test_db_corruption_quarantined;
    Alcotest.test_case "stale schema generation invalidated" `Quick
      test_db_stale_schema_invalidated;
    Alcotest.test_case "record with mismatched classes never served" `Quick
      test_db_mismatched_classes_rejected;
    Alcotest.test_case "warm DB serves repeats with zero measurements" `Quick
      test_warm_db_zero_measurements;
    Alcotest.test_case "session tuned hook compiles under the winner" `Quick
      test_session_tuned_hook;
  ]
