(* Tests of the host domain pool (lib/host) and the determinism contract
   of the parallel fan-outs built on it: identical results, outcomes and
   merged metric snapshots for every --jobs value, first-failure exception
   semantics, and no deadlock when tasks raise. *)

open Sw_core
open Sw_arch
open Sw_multi

let check = Alcotest.check
let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Pool basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Sw_host.Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  check
    Alcotest.(list int)
    "results in input order"
    (List.map (fun i -> i * i) xs)
    (Sw_host.Pool.map pool (fun i -> i * i) xs);
  check Alcotest.(list int) "empty input" [] (Sw_host.Pool.map pool Fun.id [])

let test_inline_pool_spawns_nothing () =
  let pool = Sw_host.Pool.create ~jobs:1 in
  check Alcotest.int "jobs" 1 (Sw_host.Pool.jobs pool);
  (* inline pools run on the calling domain: side effects are sequential *)
  let trace = ref [] in
  ignore
    (Sw_host.Pool.map pool
       (fun i ->
         trace := i :: !trace;
         i)
       [ 1; 2; 3 ]);
  check Alcotest.(list int) "sequential effects" [ 3; 2; 1 ] !trace;
  Sw_host.Pool.shutdown pool;
  Sw_host.Pool.shutdown pool (* idempotent *)

let test_invalid_jobs () =
  match Sw_host.Pool.create ~jobs:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs = 0 accepted"

(* ------------------------------------------------------------------ *)
(* Worker exceptions: first failing index wins, pool survives           *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let failure_mask = QCheck.(pair (int_bound 3) (small_list bool))

let test_first_failure_and_no_deadlock =
  qtest ~count:60 "raising tasks: lowest index re-raised, pool reusable"
    failure_mask
    (fun (jobs4, mask) ->
      let jobs = 1 + jobs4 in
      let n = List.length mask in
      let expected = List.filteri (fun i _ -> List.nth mask i) (List.init n Fun.id) in
      Sw_host.Pool.with_pool ~jobs @@ fun pool ->
      let run () =
        Sw_host.Pool.map pool
          (fun i -> if List.nth mask i then raise (Boom i) else i)
          (List.init n Fun.id)
      in
      (match (expected, run ()) with
      | [], r -> if r <> List.init n Fun.id then Alcotest.fail "wrong results"
      | first :: _, _ -> Alcotest.fail (Printf.sprintf "Boom %d not raised" first)
      | exception Boom i -> (
          match expected with
          | first :: _ when i = first -> ()
          | first :: _ ->
              Alcotest.failf "raised Boom %d, expected Boom %d" i first
          | [] -> Alcotest.fail "spurious Boom"));
      (* the same pool still completes a full map afterwards: workers
         survived the raising tasks and the queue drained (no deadlock) *)
      let again = Sw_host.Pool.map pool (fun i -> 2 * i) (List.init 20 Fun.id) in
      again = List.init 20 (fun i -> 2 * i))

(* ------------------------------------------------------------------ *)
(* Metrics determinism: jobs=1 vs jobs=4 merge to the same snapshot     *)
(* ------------------------------------------------------------------ *)

(* Each task bumps a shared counter, a per-task-labelled counter and a
   histogram; the parent's merged snapshot must not depend on jobs. *)
let snapshot_with ~jobs works =
  let parent = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install parent;
  Fun.protect ~finally:Sw_obs.Metrics.uninstall (fun () ->
      Sw_host.Pool.with_pool ~jobs (fun pool ->
          ignore
            (Sw_host.Pool.map pool
               (fun w ->
                 Sw_obs.Metrics.incr_a ~by:w "host_test.work_total";
                 Sw_obs.Metrics.incr_a
                   ~labels:[ ("bucket", string_of_int (w mod 3)) ]
                   "host_test.labelled_total";
                 Sw_obs.Metrics.observe_a "host_test.cost_seconds"
                   (float_of_int w /. 17.0))
               works));
      Sw_obs.Metrics.snapshot parent)

let same_modulo_hist_sum_order s1 s4 =
  List.length s1 = List.length s4
  && List.for_all2
       (fun (id1, v1) (id4, v4) ->
         id1 = id4
         &&
         match (v1, v4) with
         | Sw_obs.Metrics.Counter a, Sw_obs.Metrics.Counter b -> a = b
         | Sw_obs.Metrics.Gauge a, Sw_obs.Metrics.Gauge b -> a = b
         | ( Sw_obs.Metrics.Histogram { n = n1; sum = s1; counts = c1; _ },
             Sw_obs.Metrics.Histogram { n = n4; sum = s4; counts = c4; _ } ) ->
             (* counts are exact; sums may differ in the last bits because
                per-task absorption associates the additions differently *)
             n1 = n4 && c1 = c4
             && abs_float (s1 -. s4) <= 1e-9 *. (1.0 +. abs_float s1)
         | _ -> false)
       s1 s4

let test_metrics_jobs_invariant =
  qtest ~count:40 "merged metric snapshots identical for jobs=1 and jobs=4"
    QCheck.(small_list small_nat)
    (fun works ->
      same_modulo_hist_sum_order
        (snapshot_with ~jobs:1 works)
        (snapshot_with ~jobs:4 works))

(* ------------------------------------------------------------------ *)
(* Multi-cluster verify: outcome independent of jobs                    *)
(* ------------------------------------------------------------------ *)

let tiny = Config.tiny ()

(* random small-but-uneven shapes, random operand seeds and cluster
   counts: the whole multi-cluster fan-out, both pool paths *)
let verify_case =
  QCheck.(
    quad (int_range 3 20) (int_range 3 18) (int_range 2 10) (int_range 1 6))

let outcome p ~seed ~jobs =
  match Multi_sim.verify ~seed ~jobs (Session.create ~no_cache:true ~arch:tiny ()) p with
  | Ok () -> "ok"
  | Error e -> Error.to_string e

let test_verify_jobs_invariant =
  qtest ~count:12 "Multi_sim.verify: jobs=1 and jobs=4 agree" verify_case
    (fun (m, n, k, clusters) ->
      let spec = Spec.make ~m ~n ~k () in
      match Plan.make spec ~clusters with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
          let seed = m + (31 * n) + (17 * k) in
          String.equal (outcome p ~seed ~jobs:1) (outcome p ~seed ~jobs:4))

let test_measure_jobs_invariant () =
  let spec = Spec.make ~m:4096 ~n:4096 ~k:2048 () in
  let config = Config.sw26010pro in
  match Plan.make spec ~clusters:6 with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let stats jobs =
        Multi_sim.measure ~jobs (Session.create ~no_cache:true ~arch:config ()) p
      in
      let s1 = stats 1 and s4 = stats 4 in
      check (Alcotest.float 0.0) "seconds" s1.Multi_sim.seconds
        s4.Multi_sim.seconds;
      check
        (Alcotest.list (Alcotest.float 0.0))
        "per-cluster times (grid order)" s1.Multi_sim.per_cluster_s
        s4.Multi_sim.per_cluster_s

(* ------------------------------------------------------------------ *)
(* Span lanes: every worker's trace is stitched into the parent         *)
(* ------------------------------------------------------------------ *)

let test_span_lanes_stitched () =
  let parent = Sw_obs.Span.create () in
  Sw_obs.Span.install parent;
  Fun.protect ~finally:Sw_obs.Span.uninstall (fun () ->
      Sw_host.Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Sw_host.Pool.map pool
               (fun i -> Sw_obs.Span.ambient "task" (fun () -> i))
               (List.init 16 Fun.id))));
  (* all 16 task spans landed in the parent sink, none were lost *)
  check Alcotest.int "stitched events" 16 (Sw_obs.Span.length parent);
  let rendered = Sw_obs.Json.to_string (Sw_obs.Span.to_chrome parent) in
  Alcotest.(check bool) "worker lanes named" true
    (Helpers.contains rendered "domain ")

let tests =
  [
    ("map preserves order", `Quick, test_map_order);
    ("jobs=1 runs inline", `Quick, test_inline_pool_spawns_nothing);
    ("jobs=0 rejected", `Quick, test_invalid_jobs);
    test_first_failure_and_no_deadlock;
    test_metrics_jobs_invariant;
    test_verify_jobs_invariant;
    ("measure invariant under jobs", `Quick, test_measure_jobs_invariant);
    ("span lanes stitched", `Quick, test_span_lanes_stitched);
  ]
