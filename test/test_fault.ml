(* Tests of the fault-injection harness, the deadlock forensics and the
   typed recovery ladder: every faulted run must end in a reference match
   or a typed error — never a hang, never silent corruption. *)

open Sw_core
open Sw_arch

(* Compile under a throwaway cacheless session; raises Sim_error on
   failure (the old compile_exn convenience). *)
let compile_exn ?options ?debug ?cache ?observer ~config spec =
  Compile.run_exn
    (Session.create ?options ?debug ?cache ~no_cache:true ?observer
       ~arch:config ())
    spec


let check = Alcotest.check
let qtest = Helpers.qtest

let tiny = Config.tiny ()
let compile ?options spec = compile_exn ?options ~config:tiny spec

(* Bound every faulted simulation so a regression shows up as a typed
   Watchdog error instead of a hanging test binary. *)
let watchdog =
  { Engine.max_sim_s = Some 10.0; max_events = Some 5_000_000; max_host_s = None }

let spec_mnk = Spec.make

(* ------------------------------------------------------------------ *)
(* Zero overhead with faults off                                        *)
(* ------------------------------------------------------------------ *)

let test_zero_overhead_off () =
  let compiled = compile (spec_mnk ~m:16 ~n:8 ~k:16 ()) in
  let plain = Runner.measure_exact compiled in
  match Runner.timing_resilient compiled with
  | Error e -> Alcotest.fail (Runner.error_to_string e)
  | Ok r ->
      (* no fault plan: the resilient path must be bit-identical *)
      check (Alcotest.float 0.0) "identical seconds" plain.Runner.seconds
        r.Runner.seconds;
      (match r.Runner.recovery with
      | Runner.No_recovery -> ()
      | other ->
          Alcotest.failf "unexpected recovery: %s"
            (Runner.recovery_to_string other))

(* ------------------------------------------------------------------ *)
(* Determinism of a seeded plan                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_determinism () =
  (* timing-perturbing kinds only, so the run always completes cleanly *)
  let spec =
    Fault.spec_with
      ~kinds:[ Fault.Jitter; Fault.Stall; Fault.Straggler; Fault.Delay_reply ]
      Fault.default_spec
  in
  let compiled = compile (spec_mnk ~m:16 ~n:8 ~k:16 ()) in
  let run () =
    let faults = Fault.plan ~spec ~seed:7 () in
    match Runner.timing_resilient ~faults ~watchdog compiled with
    | Ok r -> (r.Runner.seconds, Fault.stats_to_string faults)
    | Error e -> Alcotest.fail (Runner.error_to_string e)
  in
  let s1, i1 = run () in
  let s2, i2 = run () in
  check (Alcotest.float 0.0) "reproducible seconds" s1 s2;
  check Alcotest.string "reproducible injections" i1 i2;
  Alcotest.(check bool) "something was injected" true (i1 <> "none injected");
  (* and the perturbed run differs from the clean one *)
  let clean = Runner.measure_exact compiled in
  Alcotest.(check bool) "faults slow the run down" true
    (s1 > clean.Runner.seconds)

(* ------------------------------------------------------------------ *)
(* Deadlock forensics                                                   *)
(* ------------------------------------------------------------------ *)

let test_deadlock_forensics () =
  (* deliberately broken protocol: the wait's matching dma_get was dropped,
     so the reply counter can never reach its target *)
  let mem = Mem.create () in
  Mem.alloc mem "A" ~dims:[ 8; 8 ];
  let cluster = Cluster.create ~config:tiny ~functional:false ~mem () in
  Cluster.alloc_replies cluster [ "rA" ];
  let c00 = Cluster.cpe cluster ~rid:0 ~cid:0 in
  Engine.spawn ~label:"CPE(0,0)" cluster.Cluster.engine (fun () ->
      Engine.delay 1.0e-6;
      Cluster.wait_reply cluster c00 ~reply:"rA" ~rcopy:0);
  match Engine.run cluster.Cluster.engine with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Error.Sim_error (Error.Deadlock d) ->
      check Alcotest.int "one blocked fiber" 1 (List.length d.Error.fibers);
      let b = List.hd d.Error.fibers in
      check Alcotest.string "names the CPE" "CPE(0,0)" b.Error.fiber;
      check Alcotest.string "names the reply counter" "rA[0]" b.Error.counter;
      check Alcotest.int "current value" 0 b.Error.current;
      check Alcotest.int "awaited value" 1 b.Error.awaited;
      check (Alcotest.float 1e-12) "park time" 1.0e-6 b.Error.parked_at;
      let msg = Error.to_string (Error.Deadlock d) in
      Alcotest.(check bool) "message names CPE" true
        (Helpers.contains msg "CPE(0,0)");
      Alcotest.(check bool) "message names counter" true
        (Helpers.contains msg "rA[0]")

let test_drop_forever_deadlocks_without_retry () =
  (* every reply permanently lost and no retry policy: the run must end in
     a deadlock diagnosis, not a hang *)
  let compiled = compile (spec_mnk ~m:8 ~n:8 ~k:8 ()) in
  let mem = Runner.timing_memory compiled.Compile.program in
  let spec =
    {
      (Fault.spec_with ~kinds:[ Fault.Drop_reply ] Fault.default_spec) with
      Fault.drop_prob = 1.0;
      drop_permanent_frac = 1.0;
    }
  in
  let faults = Fault.plan ~spec ~seed:1 () in
  match
    Interp.run ~faults ~watchdog ~config:tiny ~functional:false ~mem
      compiled.Compile.program
  with
  | Error (Error.Deadlock d) ->
      Alcotest.(check bool) "blocked fibers listed" true (d.Error.fibers <> []);
      List.iter
        (fun (b : Error.blocked) ->
          Alcotest.(check bool) "fiber labelled with coordinates" true
            (Helpers.contains b.Error.fiber "CPE("))
        d.Error.fibers
  | _ -> Alcotest.fail "expected a deadlock"

(* ------------------------------------------------------------------ *)
(* Recovery ladder: retry, then MPE fallback                            *)
(* ------------------------------------------------------------------ *)

let test_retry_recovers_redelivered_drops () =
  (* drops are always re-delivered: bounded retry must absorb them and the
     result must still match the reference *)
  let spec =
    {
      (Fault.spec_with ~kinds:[ Fault.Drop_reply ] Fault.default_spec) with
      Fault.drop_prob = 0.35;
      drop_permanent_frac = 0.0;
    }
  in
  let faults = Fault.plan ~spec ~seed:3 () in
  let compiled = compile (spec_mnk ~m:16 ~n:8 ~k:16 ()) in
  match Runner.verify_resilient ~faults ~watchdog compiled with
  | Error e -> Alcotest.fail (Runner.error_to_string e)
  | Ok r -> (
      match r.Runner.recovery with
      | Runner.Retried n -> Alcotest.(check bool) "some waits retried" true (n > 0)
      | other ->
          Alcotest.failf "expected retry recovery, got %s"
            (Runner.recovery_to_string other))

let test_mpe_fallback_on_permanent_drops () =
  (* every reply lost for good: retries exhaust and the run degrades to the
     management core instead of deadlocking *)
  let spec =
    {
      (Fault.spec_with ~kinds:[ Fault.Drop_reply ] Fault.default_spec) with
      Fault.drop_prob = 1.0;
      drop_permanent_frac = 1.0;
    }
  in
  let faults = Fault.plan ~spec ~seed:5 () in
  let compiled = compile (spec_mnk ~m:16 ~n:8 ~k:16 ()) in
  match Runner.verify_resilient ~faults ~watchdog compiled with
  | Error e -> Alcotest.fail (Runner.error_to_string e)
  | Ok r -> (
      Alcotest.(check bool) "fallback costs time" true (r.Runner.seconds > 0.0);
      match r.Runner.recovery with
      | Runner.Mpe_fallback { reason } ->
          Alcotest.(check bool) "reason names the CPE" true
            (Helpers.contains reason "CPE(")
      | other ->
          Alcotest.failf "expected MPE fallback, got %s"
            (Runner.recovery_to_string other))

(* ------------------------------------------------------------------ *)
(* Silent corruption is impossible                                      *)
(* ------------------------------------------------------------------ *)

let test_flips_are_detected () =
  (* aggressive SPM soft errors: the functional check must flag the run as
     a mismatch — never return Ok with a wrong C *)
  let spec =
    {
      (Fault.spec_with ~kinds:[ Fault.Flip ] Fault.default_spec) with
      Fault.flip_prob = 0.9;
      flip_magnitude = 10.0;
    }
  in
  let faults = Fault.plan ~spec ~seed:11 () in
  let compiled = compile (spec_mnk ~m:16 ~n:8 ~k:16 ()) in
  match Runner.verify_resilient ~faults ~watchdog compiled with
  | Error (Runner.Mismatch m) ->
      Alcotest.(check bool) "diff reported" true (m.diff > 0.0)
  | Error (Runner.Sim _ as e) ->
      Alcotest.failf "expected a mismatch, got %s" (Runner.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupted run reported as clean"

(* ------------------------------------------------------------------ *)
(* The resilience property                                              *)
(* ------------------------------------------------------------------ *)

(* Random shapes x random fault plans: every run terminates (watchdog
   bounds regressions) and ends in a reference match or a typed error. *)
let resilience_prop =
  qtest ~count:200 "faulted runs end in match or typed error"
    QCheck.(
      quad (int_range 1 10) (int_range 1 10) (int_range 1 12) (int_range 0 4095))
    (fun (m, n, k, salt) ->
      let kinds =
        List.filteri (fun i _ -> (salt lsr i) land 1 = 1) Fault.all_kinds
      in
      let kinds = if kinds = [] then Fault.all_kinds else kinds in
      (* crank the probabilities so even tiny runs see injections *)
      let spec =
        {
          (Fault.spec_with ~kinds Fault.default_spec) with
          Fault.stall_prob = 0.1;
          delay_prob = 0.3;
          drop_prob = 0.2;
          flip_prob = 0.05;
        }
      in
      let faults = Fault.plan ~spec ~seed:(salt * 7919) () in
      let compiled = compile (spec_mnk ~m ~n ~k ()) in
      match Runner.verify_resilient ~faults ~watchdog compiled with
      | Ok _ -> true
      | Error (Runner.Sim _ | Runner.Mismatch _) -> true)

let tests =
  [
    ("zero overhead with faults off", `Quick, test_zero_overhead_off);
    ("seeded plans are deterministic", `Quick, test_fault_determinism);
    ("deadlock forensics name CPE and counter", `Quick, test_deadlock_forensics);
    ( "permanent drops deadlock without retry",
      `Quick,
      test_drop_forever_deadlocks_without_retry );
    ("retry absorbs re-delivered drops", `Quick, test_retry_recovers_redelivered_drops);
    ("MPE fallback on permanent drops", `Quick, test_mpe_fallback_on_permanent_drops);
    ("SPM flips are detected, never silent", `Quick, test_flips_are_detected);
    resilience_prop;
  ]
