(* Tests for the multi-cluster (MPI-level) decomposition. *)

open Sw_core
open Sw_arch
open Sw_multi

let check = Alcotest.check
let tiny = Config.tiny ()

(* one tiny session shared by the verify tests; two host domains so the
   pool path is exercised by the unit suite too *)
let tiny_session = Session.create ~no_cache:true ~arch:tiny ()
let verify2 = Multi_sim.verify ~jobs:2 tiny_session

let plan_ok spec ~clusters =
  match Plan.make spec ~clusters with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Plans                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_choice () =
  check (Alcotest.pair Alcotest.int Alcotest.int) "6 clusters, square"
    (2, 3)
    (Plan.choose_grid ~clusters:6 ~m:4096 ~n:8192);
  check (Alcotest.pair Alcotest.int Alcotest.int) "6 clusters, tall"
    (3, 2)
    (Plan.choose_grid ~clusters:6 ~m:8192 ~n:4096);
  check (Alcotest.pair Alcotest.int Alcotest.int) "4 clusters" (2, 2)
    (Plan.choose_grid ~clusters:4 ~m:4096 ~n:4096);
  check (Alcotest.pair Alcotest.int Alcotest.int) "1 cluster" (1, 1)
    (Plan.choose_grid ~clusters:1 ~m:4096 ~n:4096)

let test_plan_partition () =
  let spec = Spec.make ~m:100 ~n:90 ~k:32 () in
  let p = plan_ok spec ~clusters:6 in
  check Alcotest.int "six jobs" 6 (List.length p.Plan.jobs);
  (* the jobs tile the output exactly: row/col extents sum up *)
  let total_cells =
    List.fold_left
      (fun acc (j : Plan.job) ->
        acc + (j.Plan.spec.Spec.m * j.Plan.spec.Spec.n))
      0 p.Plan.jobs
  in
  check Alcotest.int "covers all of C" (100 * 90) total_cells;
  List.iter
    (fun (j : Plan.job) ->
      check Alcotest.int "full K" 32 j.Plan.spec.Spec.k;
      Alcotest.(check bool) "offsets in range" true
        (j.Plan.row_off >= 0 && j.Plan.row_off + j.Plan.spec.Spec.m <= 100))
    p.Plan.jobs

let test_plan_rejects_batched () =
  match Plan.make (Spec.make ~batch:2 ~m:8 ~n:8 ~k:8 ()) ~clusters:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batched plan accepted"

let test_plan_preserves_scalars () =
  let spec = Spec.make ~alpha:0.5 ~beta:2.0 ~fusion:(Spec.Epilogue "relu") ~m:64 ~n:64 ~k:16 () in
  let p = plan_ok spec ~clusters:4 in
  List.iter
    (fun (j : Plan.job) ->
      check (Alcotest.float 0.0) "alpha" 0.5 j.Plan.spec.Spec.alpha;
      check (Alcotest.float 0.0) "beta" 2.0 j.Plan.spec.Spec.beta;
      Alcotest.(check bool) "fusion" true
        (j.Plan.spec.Spec.fusion = Spec.Epilogue "relu"))
    p.Plan.jobs

(* ------------------------------------------------------------------ *)
(* Functional verification                                              *)
(* ------------------------------------------------------------------ *)

let test_verify_plain () =
  let spec = Spec.make ~m:24 ~n:16 ~k:12 () in
  let p = plan_ok spec ~clusters:6 in
  match verify2 p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

let test_verify_uneven () =
  (* extents that do not divide evenly across the grid *)
  let spec = Spec.make ~m:26 ~n:19 ~k:9 () in
  let p = plan_ok spec ~clusters:4 in
  match verify2 p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

let test_verify_fused () =
  let spec = Spec.make ~alpha:1.5 ~beta:0.5 ~fusion:(Spec.Epilogue "relu") ~m:16 ~n:24 ~k:8 () in
  let p = plan_ok spec ~clusters:6 in
  match verify2 p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

let test_verify_prologue_fused () =
  let spec = Spec.make ~fusion:(Spec.Prologue "quant") ~m:16 ~n:16 ~k:8 () in
  let p = plan_ok spec ~clusters:2 in
  match verify2 p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

let test_verify_single_cluster () =
  let spec = Spec.make ~m:16 ~n:8 ~k:8 () in
  let p = plan_ok spec ~clusters:1 in
  match verify2 p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Timing                                                               *)
(* ------------------------------------------------------------------ *)

let test_measure_scaling () =
  (* more clusters -> faster wall clock on a big problem, with sublinear
     efficiency due to NoC distribution *)
  let config = Config.sw26010pro in
  let spec = Spec.make ~m:8192 ~n:8192 ~k:4096 () in
  let time clusters =
    (Multi_sim.measure ~jobs:2 (Session.create ~no_cache:true ~arch:config ()) (plan_ok spec ~clusters))
      .Multi_sim.seconds
  in
  let t1 = time 1 and t2 = time 2 and t6 = time 6 in
  Alcotest.(check bool) "2 clusters faster" true (t2 < t1);
  Alcotest.(check bool) "6 clusters faster still" true (t6 < t2);
  Alcotest.(check bool) "but sublinear" true (t6 > t1 /. 6.5);
  let s =
    Multi_sim.measure ~jobs:2 (Session.create ~no_cache:true ~arch:config ()) (plan_ok spec ~clusters:6)
  in
  Alcotest.(check bool) "efficiency in (0.3, 1.0]" true
    (s.Multi_sim.parallel_efficiency > 0.3
    && s.Multi_sim.parallel_efficiency <= 1.001);
  Alcotest.(check bool) "distribution visible" true
    (s.Multi_sim.distribution_s > 0.0)

let test_measure_reports_jobs () =
  let config = Config.sw26010pro in
  let spec = Spec.make ~m:4096 ~n:4096 ~k:2048 () in
  let s =
    Multi_sim.measure ~jobs:2 (Session.create ~no_cache:true ~arch:config ()) (plan_ok spec ~clusters:6)
  in
  check Alcotest.int "six per-cluster times" 6
    (List.length s.Multi_sim.per_cluster_s)

(* The NoC the machine model names is the one the distribution time is
   charged on. The calibrated preset reproduces, bit for bit, the stats
   the multi-cluster model gave when its NoC was a built-in constant. *)
let test_measure_noc_from_config () =
  let preset =
    match Config.find "sw26010pro" with
    | Some c -> c
    | None -> Alcotest.fail "sw26010pro preset missing"
  in
  let plan = plan_ok (Spec.make ~m:2048 ~n:1024 ~k:512 ()) ~clusters:6 in
  let measure config =
    Multi_sim.measure ~jobs:2 (Session.create ~no_cache:true ~arch:config ()) plan
  in
  let base = measure preset in
  let hex = Printf.sprintf "%h" in
  check Alcotest.(list string) "preset stats"
    [
      "0x1.92e9233c5a1fep-10"; "0x1.5d4d4c27e172ep+10";
      "0x1.a082dbabd1995p-11"; "0x1.21565aeab2b81p-2";
    ]
    (List.map hex
       [
         base.Multi_sim.seconds; base.Multi_sim.gflops;
         base.Multi_sim.distribution_s; base.Multi_sim.parallel_efficiency;
       ]);
  check Alcotest.(list string) "preset per-cluster times"
    (List.init 6 (fun _ -> "0x1.854f6acce2a67p-11"))
    (List.map hex base.Multi_sim.per_cluster_s);
  List.iter
    (fun (what, config) ->
      let s = measure config in
      if not (s.Multi_sim.distribution_s > base.Multi_sim.distribution_s) then
        Alcotest.failf "%s: distribution %g s not above %g s" what
          s.Multi_sim.distribution_s base.Multi_sim.distribution_s;
      check Alcotest.(list (float 0.0)) (what ^ ": compute unchanged")
        base.Multi_sim.per_cluster_s s.Multi_sim.per_cluster_s)
    [
      ( "halved NoC link",
        {
          preset with
          Config.noc_link_bw_bytes_per_s =
            preset.Config.noc_link_bw_bytes_per_s /. 2.0;
        } );
      ( "raised NoC latency",
        {
          preset with
          Config.noc_latency_s = preset.Config.noc_latency_s *. 10.0;
        } );
    ]

(* A tuned lookup may compile a job for another machine model than the
   session's; each job must then run on the model it was compiled for. *)
let test_verify_tuned ~session_arch ~tuned_arch () =
  let session =
    {
      (Session.create ~no_cache:true ~arch:session_arch ()) with
      Session.tuned = Some (fun _ -> Some (tuned_arch, Options.all_on));
    }
  in
  let p = plan_ok (Spec.make ~m:24 ~n:16 ~k:12 ()) ~clusters:6 in
  match Multi_sim.verify ~jobs:1 session p with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e)

let tests =
  [
    ("grid choice", `Quick, test_grid_choice);
    ("plan partitions C exactly", `Quick, test_plan_partition);
    ("plan rejects batched", `Quick, test_plan_rejects_batched);
    ("plan preserves scalars/fusion", `Quick, test_plan_preserves_scalars);
    ("verify plain (6 clusters)", `Quick, test_verify_plain);
    ("verify uneven extents", `Quick, test_verify_uneven);
    ("verify fused epilogue", `Quick, test_verify_fused);
    ("verify fused prologue", `Quick, test_verify_prologue_fused);
    ("verify single cluster", `Quick, test_verify_single_cluster);
    ( "verify under a tuned 4x4 mesh",
      `Quick,
      test_verify_tuned ~session_arch:tiny ~tuned_arch:(Config.tiny ~mesh:4 ())
    );
    ( "verify under a tuned 2x2 mesh",
      `Quick,
      test_verify_tuned ~session_arch:(Config.tiny ~mesh:4 ()) ~tuned_arch:tiny
    );
    ("scaling over clusters", `Quick, test_measure_scaling);
    ("per-cluster reporting", `Quick, test_measure_reports_jobs);
    ("NoC comes from the machine model", `Quick, test_measure_noc_from_config);
  ]
