(* Tests of the admission gate (lib/host/supervise.ml): requests past the
   in-flight limit queue until a slot frees, requests past the queue are
   shed as overloaded. Also pins the stable class tokens of every
   Sw_arch.Error variant. *)

open Sw_arch

let check = Alcotest.check

module Supervise = Sw_host.Supervise
module Metrics = Sw_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Error taxonomy (stable, greppable classes)                           *)
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
    ( "fault_exhausted",
      Error.Fault_exhausted
        { fiber = "CPE(0,0)"; counter = "dma"; retries = 3; sim_time = 1.0 } );
    ( "watchdog",
      Error.Watchdog { limit = `Events 5; sim_time = 0.0; events_run = 5 } );
    ("invalid", Error.Invalid "synthetic");
    ( "timeout",
      Error.Timeout { stage = "pass:fusion"; elapsed_s = 2.0; deadline_s = 1.0 }
    );
    ("overloaded", Error.Overloaded { in_flight = 4; queued = 8; limit = 8 });
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

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_when_full () =
  let slots = Supervise.default_policy.Supervise.max_in_flight in
  let sup =
    Supervise.create
      ~policy:{ Supervise.default_policy with max_queued = 0 }
      ()
  in
  for _ = 1 to slots do
    match Supervise.admit sup with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "slots below the limit admitted"
  done;
  check Alcotest.int "in flight" slots (Supervise.in_flight sup);
  let ran = ref false in
  (match
     Supervise.run sup (fun () ->
         ran := true;
         Ok "never")
   with
  | Error (Error.Overloaded { in_flight; queued; limit }) ->
      check Alcotest.int "in_flight reported" slots in_flight;
      check Alcotest.int "queued reported" 0 queued;
      check Alcotest.int "limit reported" 0 limit
  | _ -> Alcotest.fail "expected Overloaded");
  check Alcotest.bool "shed: work not invoked" false !ran;
  Supervise.release sup;
  (* a freed slot admits again, and run releases it on exit *)
  check Alcotest.bool "admits after release" true
    (Supervise.run sup (fun () -> Ok ()) = Ok ());
  check Alcotest.int "run released its slot" (slots - 1)
    (Supervise.in_flight sup)

(* One slot, one queue place: a second request on another thread waits
   (the queue-depth gauge shows it parked), a third is shed, and the
   second completes once the first releases. *)
let test_admission_queues_until_release () =
  let registry = Metrics.create () in
  Metrics.install registry;
  Fun.protect ~finally:Metrics.uninstall @@ fun () ->
  let sup =
    Supervise.create
      ~policy:{ Supervise.max_in_flight = 1; max_queued = 1 }
      ()
  in
  (match Supervise.admit sup with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first admit");
  let second = ref None in
  let waiter =
    Thread.create
      (fun () -> second := Some (Supervise.run sup (fun () -> Ok "second")))
      ()
  in
  let queue_depth () =
    match Metrics.find (Metrics.snapshot registry) "supervise.queue_depth" with
    | Some (Metrics.Gauge d) -> d
    | _ -> 0.0
  in
  let rec until_queued polls =
    if queue_depth () < 1.0 then begin
      if polls = 0 then Alcotest.fail "second request never queued";
      Thread.delay 0.001;
      until_queued (polls - 1)
    end
  in
  until_queued 5_000;
  check Alcotest.bool "queued request waits" true (!second = None);
  (match Supervise.run sup (fun () -> Ok "third") with
  | Error (Error.Overloaded { queued = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected the third request shed");
  Supervise.release sup;
  Thread.join waiter;
  check Alcotest.bool "queued request ran after the release" true
    (!second = Some (Ok "second"));
  check Alcotest.int "every slot released" 0 (Supervise.in_flight sup);
  check (Alcotest.float 0.0) "queue drained" 0.0 (queue_depth ())

let tests =
  [
    Alcotest.test_case "every error class token is greppable" `Quick
      test_error_classes;
    Alcotest.test_case "admission sheds at the limit" `Quick
      test_admission_sheds_when_full;
    Alcotest.test_case "admission queues until a slot frees" `Quick
      test_admission_queues_until_release;
  ]
