(* Tests of the supervision layer (lib/host/supervise.ml): deadlines
   always fire, bounded retry never exceeds its budget, the circuit
   breaker's state machine under an injected clock, admission control,
   and the determinism contract of supervised pool fan-outs — results and
   breaker state invariant under the pool width. Also pins the stable
   class tokens of every Sw_arch.Error variant. *)

open Sw_arch

let check = Alcotest.check
let qtest = Helpers.qtest

(* An injected clock: [sleep] advances [now], so backoff and cooldown
   waits are instantaneous and deterministic. *)
let fake_clock () =
  let t = ref 0.0 in
  let now () = !t in
  let sleep d = t := !t +. d in
  (t, now, sleep)

let supervise ?policy () =
  let t, now, sleep = fake_clock () in
  (t, Sw_host.Supervise.create ?policy ~seed:7 ~now ~sleep ())

let default = Sw_host.Supervise.default_policy

let err_invalid = Error.Invalid "synthetic"
let err_retryable =
  Error.Fault_exhausted
    { fiber = "CPE(0,0)"; counter = "dma"; retries = 3; sim_time = 1.0 }

let is_timeout = function Error (Error.Timeout _) -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Error taxonomy (satellite: stable, greppable classes)                *)
(* ------------------------------------------------------------------ *)

let sample_errors =
  [
    ( "deadlock",
      Error.Deadlock { sim_time = 1.0; events_run = 10; fibers = [] } );
    ( "race",
      Error.Race
        [
          {
            Error.rid = 0;
            cid = 1;
            conflict =
              {
                Error.buffer = "a_tile";
                copy = 0;
                kind = `Write_read;
                op_start = 0.0;
                op_finish = 1.0;
                prev_start = 0.0;
                prev_finish = 0.5;
              };
          };
        ] );
    ("bounds", Error.Bounds { array_name = "A"; detail = "row 9" });
    ( "overflow",
      Error.Overflow
        { buffer = "b_tile"; needed = 9; available = 8; capacity = 8 } );
    ("fault_exhausted", err_retryable);
    ( "watchdog",
      Error.Watchdog { limit = `Events 5; sim_time = 0.0; events_run = 5 } );
    ("invalid", err_invalid);
    ( "timeout",
      Error.Timeout { stage = "pass:fusion"; elapsed_s = 2.0; deadline_s = 1.0 }
    );
    ("overloaded", Error.Overloaded { in_flight = 4; queued = 8; limit = 8 });
    ( "store_corrupt",
      Error.Store_corrupt
        { key = "abc123"; path = "/tmp/s/objects/ab/abc123"; detail = "md5" }
    );
    ( "circuit_open",
      Error.Circuit_open
        { shape_class = "gemm 64"; failures = 5; cooldown_s = 2.5 } );
  ]

let test_error_classes () =
  List.iter
    (fun (expected, e) ->
      check Alcotest.string "class token" expected (Error.class_of e);
      let rendered = Error.to_string e in
      if not (Helpers.contains rendered expected) then
        Alcotest.failf "class token %S missing from rendering %S" expected
          rendered)
    sample_errors

let test_retryable_classification () =
  List.iter
    (fun (cls, e) ->
      let expected =
        match cls with
        | "fault_exhausted" | "watchdog" | "store_corrupt" -> true
        | _ -> false
      in
      check Alcotest.bool cls expected (Error.retryable e))
    sample_errors

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)
(* ------------------------------------------------------------------ *)

let test_deadline_fires_at_checkpoint () =
  let t, sup = supervise () in
  let r =
    Sw_host.Supervise.run sup ~deadline_s:1.0 (fun tok ->
        check Alcotest.bool "fresh token ok" true
          (Result.is_ok (Sw_host.Supervise.checkpoint tok));
        t := !t +. 5.0;
        (* a stalled stage is noticed at the next cooperative checkpoint *)
        match Sw_host.Supervise.checkpoint ~stage:"stalled-stage" tok with
        | Error e -> Error e
        | Ok () -> Ok "unreachable")
  in
  (match r with
  | Error (Error.Timeout { stage; elapsed_s; deadline_s }) ->
      check Alcotest.string "stage" "stalled-stage" stage;
      check Alcotest.bool "elapsed > deadline" true (elapsed_s > deadline_s)
  | _ -> Alcotest.fail "expected Timeout");
  check Alcotest.int "slot released" 0 (Sw_host.Supervise.in_flight sup)

let test_deadline_fires_in_admission_queue () =
  (* one slot, a queue of one: the queued request's deadline expires while
     it waits (the injected sleep advances the clock), so it resolves with
     Timeout instead of hanging *)
  let policy = { default with Sw_host.Supervise.max_in_flight = 1 } in
  let _, sup = supervise ~policy () in
  let tok = Sw_host.Supervise.token sup ~stage:"hog" in
  (match Sw_host.Supervise.admit sup tok with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first admit");
  let r = Sw_host.Supervise.run sup ~deadline_s:0.5 (fun _ -> Ok "never") in
  (match r with
  | Error (Error.Timeout { stage; _ }) ->
      check Alcotest.string "timed out waiting" "admission" stage
  | _ -> Alcotest.fail "expected admission Timeout");
  Sw_host.Supervise.release sup;
  check Alcotest.int "in_flight drained" 0 (Sw_host.Supervise.in_flight sup)

let test_no_deadline_never_times_out () =
  let t, sup = supervise () in
  let r =
    Sw_host.Supervise.run sup (fun tok ->
        t := !t +. 1000.0;
        Result.map (fun () -> "done") (Sw_host.Supervise.checkpoint tok))
  in
  check Alcotest.bool "no deadline, no timeout" true (r = Ok "done")

(* ------------------------------------------------------------------ *)
(* Retry budget                                                         *)
(* ------------------------------------------------------------------ *)

let retry_budget_gen = QCheck.(pair (int_range 1 4) (int_bound 6))

let test_retries_within_budget =
  qtest ~count:100 "attempts = min(max_attempts, failures+1), never more"
    retry_budget_gen
    (fun (max_attempts, failures) ->
      let policy = { default with Sw_host.Supervise.max_attempts } in
      let _, sup = supervise ~policy () in
      let attempts = ref 0 in
      let r =
        Sw_host.Supervise.run sup (fun _ ->
            incr attempts;
            if !attempts <= failures then Error err_retryable else Ok !attempts)
      in
      let expected = min max_attempts (failures + 1) in
      !attempts = expected
      && (if failures < max_attempts then r = Ok expected
          else r = Error err_retryable))

let test_non_retryable_fails_fast () =
  let _, sup = supervise () in
  let attempts = ref 0 in
  let r =
    Sw_host.Supervise.run sup (fun _ ->
        incr attempts;
        Error err_invalid)
  in
  check Alcotest.int "one attempt" 1 !attempts;
  check Alcotest.bool "error surfaced" true (r = Error err_invalid)

let test_retry_stops_at_deadline () =
  (* with a 10 s backoff the second attempt would start past the 1 s
     deadline: the loop must give up rather than sleep through it *)
  let policy =
    {
      default with
      Sw_host.Supervise.max_attempts = 5;
      backoff_base_s = 10.0;
      backoff_max_s = 10.0;
    }
  in
  let _, sup = supervise ~policy () in
  let attempts = ref 0 in
  let r =
    Sw_host.Supervise.run sup ~deadline_s:1.0 (fun _ ->
        incr attempts;
        Error err_retryable)
  in
  check Alcotest.int "no attempt after expiry" 1 !attempts;
  check Alcotest.bool "resolves, does not hang" true (Result.is_error r)

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                      *)
(* ------------------------------------------------------------------ *)

let breaker_policy =
  {
    default with
    Sw_host.Supervise.breaker_threshold = 2;
    breaker_cooldown_s = 10.0;
    max_attempts = 1;
  }

let run_failing sup class_ =
  Sw_host.Supervise.run sup ~shape_class:class_ (fun _ -> Error err_invalid)

let test_breaker_trips_and_recovers () =
  let t, sup = supervise ~policy:breaker_policy () in
  let state () = Sw_host.Supervise.breaker_state sup "c" in
  check Alcotest.bool "starts closed" true (state () = `Closed);
  ignore (run_failing sup "c");
  check Alcotest.bool "one failure: still closed" true (state () = `Closed);
  ignore (run_failing sup "c");
  check Alcotest.bool "threshold: open" true (state () = `Open);
  (* open: requests are rejected without running the work *)
  let ran = ref false in
  (match
     Sw_host.Supervise.run sup ~shape_class:"c" (fun _ ->
         ran := true;
         Ok ())
   with
  | Error (Error.Circuit_open { shape_class; cooldown_s; _ }) ->
      check Alcotest.string "class named" "c" shape_class;
      check Alcotest.bool "cooldown remaining" true (cooldown_s > 0.0)
  | _ -> Alcotest.fail "expected Circuit_open");
  check Alcotest.bool "open: work not invoked" false !ran;
  (* other classes are unaffected *)
  check Alcotest.bool "independent class" true
    (Sw_host.Supervise.run sup ~shape_class:"other" (fun _ -> Ok ()) = Ok ());
  (* cooldown elapses: one half-open probe; success closes the breaker *)
  t := !t +. 11.0;
  check Alcotest.bool "probe admitted" true
    (Sw_host.Supervise.run sup ~shape_class:"c" (fun _ -> Ok ()) = Ok ());
  check Alcotest.bool "probe success: closed" true (state () = `Closed)

let test_breaker_half_open_failure_reopens () =
  let t, sup = supervise ~policy:breaker_policy () in
  ignore (run_failing sup "c");
  ignore (run_failing sup "c");
  t := !t +. 11.0;
  (* the half-open probe fails: straight back to open for a fresh
     cooldown, no second probe until it elapses *)
  ignore (run_failing sup "c");
  check Alcotest.bool "reopened" true
    (Sw_host.Supervise.breaker_state sup "c" = `Open);
  match Sw_host.Supervise.run sup ~shape_class:"c" (fun _ -> Ok ()) with
  | Error (Error.Circuit_open _) -> ()
  | _ -> Alcotest.fail "expected Circuit_open after failed probe"

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_when_full () =
  let policy =
    { default with Sw_host.Supervise.max_in_flight = 2; max_queued = 0 }
  in
  let _, sup = supervise ~policy () in
  let tok () = Sw_host.Supervise.token sup ~stage:"t" in
  (match
     (Sw_host.Supervise.admit sup (tok ()), Sw_host.Supervise.admit sup (tok ()))
   with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "slots below the limit admitted");
  check Alcotest.int "in flight" 2 (Sw_host.Supervise.in_flight sup);
  (match Sw_host.Supervise.run sup (fun _ -> Ok "never") with
  | Error (Error.Overloaded { in_flight; queued; limit }) ->
      check Alcotest.int "in_flight reported" 2 in_flight;
      check Alcotest.int "queued reported" 0 queued;
      check Alcotest.int "limit reported" 0 limit
  | _ -> Alcotest.fail "expected Overloaded");
  Sw_host.Supervise.release sup;
  (* a freed slot admits again *)
  check Alcotest.bool "admits after release" true
    (Sw_host.Supervise.run sup (fun _ -> Ok ()) = Ok ());
  Sw_host.Supervise.release sup

let tests =
  [
    Alcotest.test_case "every error class token is greppable" `Quick
      test_error_classes;
    Alcotest.test_case "retryable classification" `Quick
      test_retryable_classification;
    Alcotest.test_case "deadline fires at the next checkpoint" `Quick
      test_deadline_fires_at_checkpoint;
    Alcotest.test_case "deadline fires while queued for admission" `Quick
      test_deadline_fires_in_admission_queue;
    Alcotest.test_case "no deadline, no timeout" `Quick
      test_no_deadline_never_times_out;
    test_retries_within_budget;
    Alcotest.test_case "non-retryable errors fail fast" `Quick
      test_non_retryable_fails_fast;
    Alcotest.test_case "retry loop respects the deadline" `Quick
      test_retry_stops_at_deadline;
    Alcotest.test_case "breaker trips, cools down, probes, closes" `Quick
      test_breaker_trips_and_recovers;
    Alcotest.test_case "failed half-open probe reopens" `Quick
      test_breaker_half_open_failure_reopens;
    Alcotest.test_case "admission sheds at the limit" `Quick
      test_admission_sheds_when_full;
  ]
