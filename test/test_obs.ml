(* Tests of the observability layer (lib/obs) and its bridge from the
   simulated cluster: metrics registry semantics, JSON exactness, Chrome
   trace export, the latency-hiding profiler's partition invariant, and
   the zero-overhead-when-off guarantee. *)

open Sw_obs
open Sw_core
open Sw_arch

let compile_exn = Helpers.compile_exn

let check = Alcotest.check
let qtest = Helpers.qtest
let contains = Helpers.contains

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_instrument_identity () =
  let r = Metrics.create () in
  let c1 = Metrics.counter r ~labels:[ ("a", "1"); ("b", "2") ] "x" in
  (* same name, labels in any order: same instrument *)
  let c2 = Metrics.counter r ~labels:[ ("b", "2"); ("a", "1") ] "x" in
  Metrics.incr c1;
  Metrics.incr ~by:4 c2;
  (match Metrics.find (Metrics.snapshot r) ~labels:[ ("a", "1"); ("b", "2") ] "x" with
  | Some (Metrics.Counter n) -> check Alcotest.int "shared count" 5 n
  | _ -> Alcotest.fail "counter not found");
  let g = Metrics.gauge r "g" in
  Metrics.set g 2.5;
  Metrics.set g 3.5;
  (match Metrics.find (Metrics.snapshot r) "g" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 0.0) "gauge" 3.5 v
  | _ -> Alcotest.fail "gauge not found");
  (* a name registered as one kind cannot come back as another *)
  match Metrics.gauge r ~labels:[ ("a", "1"); ("b", "2") ] "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~lower:1.0 ~growth:2.0 ~buckets:3 "h" in
  (* buckets: underflow | [1,2) | [2,4) | [4,8) | overflow *)
  List.iter (Metrics.observe h) [ 0.5; -3.0; 1.0; 2.0; 7.99; 8.0 ];
  match Metrics.find (Metrics.snapshot r) "h" with
  | Some (Metrics.Histogram { n; counts; sum; _ }) ->
      check Alcotest.int "n" 6 n;
      check (Alcotest.array Alcotest.int) "bucket counts"
        [| 2; 1; 1; 1; 1 |] counts;
      Helpers.check_close "sum" 16.49 sum
  | _ -> Alcotest.fail "histogram not found"

let hist_inputs =
  (* arbitrary magnitudes and signs, including zero; derived from ints so
     no nan/inf can sneak in *)
  QCheck.(list (map (fun i -> float_of_int i /. 7.0) int))

let test_histogram_conservation =
  qtest "histogram: observe n values -> counts sum to n" hist_inputs
    (fun xs ->
      let r = Metrics.create () in
      let h = Metrics.histogram r ~lower:1e-3 ~growth:4.0 ~buckets:8 "h" in
      List.iter (Metrics.observe h) xs;
      match Metrics.find (Metrics.snapshot r) "h" with
      | Some (Metrics.Histogram { n; counts; _ }) ->
          n = List.length xs && Array.fold_left ( + ) 0 counts = n
      | _ -> false)

let test_snapshot_diff_merge () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  let g = Metrics.gauge r "g" in
  let h = Metrics.histogram r ~lower:1.0 ~growth:2.0 ~buckets:4 "h" in
  Metrics.incr ~by:3 c;
  Metrics.set g 1.5;
  Metrics.observe h 2.0;
  let before = Metrics.snapshot r in
  Metrics.incr ~by:4 c;
  Metrics.set g 9.0;
  Metrics.observe h 5.0;
  Metrics.observe h 0.1;
  ignore (Metrics.counter r ~labels:[ ("k", "v") ] "new");
  let after = Metrics.snapshot r in
  let d = Metrics.diff ~before ~after in
  (match Metrics.find d "c" with
  | Some (Metrics.Counter n) -> check Alcotest.int "counter delta" 4 n
  | _ -> Alcotest.fail "no counter in diff");
  (match Metrics.find d "g" with
  | Some (Metrics.Gauge v) -> check (Alcotest.float 0.0) "gauge keeps after" 9.0 v
  | _ -> Alcotest.fail "no gauge in diff");
  (match Metrics.find d "h" with
  | Some (Metrics.Histogram { n; _ }) -> check Alcotest.int "hist delta n" 2 n
  | _ -> Alcotest.fail "no histogram in diff");
  (* round trip through the pool's merge path: absorbing before, then
     diff ~before ~after, into an empty registry reproduces after *)
  let r' = Metrics.create () in
  Metrics.absorb r' before;
  Metrics.absorb r' d;
  check Alcotest.string "absorb before + diff = after"
    (Metrics.to_text after)
    (Metrics.to_text (Metrics.snapshot r'))

let test_ambient_registry () =
  Metrics.incr_a "nobody.listens";  (* no registry installed: no-op *)
  let r = Metrics.create () in
  Metrics.install r;
  Fun.protect ~finally:Metrics.uninstall (fun () ->
      Alcotest.(check bool) "enabled" true (Metrics.enabled ());
      Metrics.incr_a ~by:2 "amb.c";
      Metrics.set_a "amb.g" 7.0;
      Metrics.observe_a "amb.h" 0.5;
      let s = Metrics.snapshot r in
      (match Metrics.find s "amb.c" with
      | Some (Metrics.Counter 2) -> ()
      | _ -> Alcotest.fail "ambient counter");
      match Metrics.find s "amb.h" with
      | Some (Metrics.Histogram { n = 1; _ }) -> ()
      | _ -> Alcotest.fail "ambient histogram");
  Alcotest.(check bool) "disabled again" false (Metrics.enabled ())

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  check Alcotest.string "quote+backslash" "a\\\"b\\\\c"
    (Json.escape "a\"b\\c");
  check Alcotest.string "newline/tab" "l1\\nl2\\tend" (Json.escape "l1\nl2\tend");
  check Alcotest.string "control char" "\\u0001" (Json.escape "\x01");
  check Alcotest.string "string literal" "\"a\\\"b\""
    (Json.to_string (Json.String "a\"b"));
  (* no bare nan/inf may ever reach a strict parser *)
  check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf" "null"
    (Json.to_string (Json.Float Float.infinity));
  check Alcotest.string "object"
    "{\"a\":[1,true,null],\"b\":2.5}"
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("b", Json.Float 2.5);
          ]))

(* ------------------------------------------------------------------ *)
(* Span sink / Chrome export                                            *)
(* ------------------------------------------------------------------ *)

let test_span_chrome_export () =
  let now = ref 10.0 in
  let sink = Span.create ~clock:(fun () -> !now) () in
  Span.set_process_name sink ~pid:Span.host_pid "generator";
  Span.set_thread_name sink ~pid:Span.host_pid ~tid:0 "pipe\"line";
  let r =
    Span.span sink ~cat:"outer" "compile" (fun () ->
        Span.span sink
          ~args:[ ("pass", Span.S "tile"); ("nodes", Span.I 7) ]
          "pass" (fun () -> now := !now +. 0.25);
        now := !now +. 0.25;
        17)
  in
  check Alcotest.int "span returns" 17 r;
  check Alcotest.int "two events" 2 (Span.length sink);
  let s = Json.to_string (Span.to_chrome sink) in
  Alcotest.(check bool) "has traceEvents" true (contains s "\"traceEvents\"");
  Alcotest.(check bool) "thread name escaped" true
    (contains s "pipe\\\"line");
  Alcotest.(check bool) "metadata" true (contains s "\"thread_name\"");
  Alcotest.(check bool) "arg recorded" true (contains s "\"pass\":\"tile\"");
  (* the inner span's 0.25 s = 250000 us duration survives *)
  Alcotest.(check bool) "inner duration" true (contains s "250000");
  (* exception safety: the event is still recorded *)
  (try
     Span.span sink "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  check Alcotest.int "event recorded on raise" 3 (Span.length sink)

let test_ambient_span () =
  check Alcotest.int "no sink: plain call" 3 (Span.ambient "x" (fun () -> 3));
  let sink = Span.create () in
  Span.install sink;
  Fun.protect ~finally:Span.uninstall (fun () ->
      ignore (Span.ambient "y" (fun () -> ()));
      check Alcotest.int "recorded" 1 (Span.length sink))

(* ------------------------------------------------------------------ *)
(* Profiler                                                             *)
(* ------------------------------------------------------------------ *)

let lane_partition_sum (l : Profile.lane) =
  l.Profile.compute +. l.Profile.exposed_dma +. l.Profile.exposed_rma
  +. l.Profile.barrier +. l.Profile.idle

let test_profile_hand_built () =
  let s track cls start finish = { Profile.track; cls; start; finish } in
  let p =
    Profile.analyze
      [
        (* DMA overlaps compute for 2 of its 4 seconds *)
        s "a" Profile.Compute 0.0 4.0;
        s "a" (Profile.Comm Profile.Dma) 2.0 6.0;
        (* a second track that only waits on RMA, then sits idle *)
        s "b" (Profile.Wait Profile.Rma) 0.0 3.0;
      ]
  in
  Helpers.check_close "span" 6.0 p.Profile.span;
  check Alcotest.int "two lanes" 2 (List.length p.Profile.lanes);
  let la = List.find (fun l -> l.Profile.track = "a") p.Profile.lanes in
  let lb = List.find (fun l -> l.Profile.track = "b") p.Profile.lanes in
  Helpers.check_close "a compute" 4.0 la.Profile.compute;
  Helpers.check_close "a exposed dma" 2.0 la.Profile.exposed_dma;
  Helpers.check_close "a hidden dma" 2.0 la.Profile.hidden_dma;
  Helpers.check_close "a idle" 0.0 la.Profile.idle;
  Helpers.check_close "b exposed rma" 3.0 lb.Profile.exposed_rma;
  Helpers.check_close "b idle" 3.0 lb.Profile.idle;
  List.iter
    (fun l ->
      Helpers.check_close
        ("partition sums to span: " ^ l.Profile.track)
        p.Profile.span (lane_partition_sum l))
    p.Profile.lanes;
  (* DMA level: 2 s hidden, 2 s exposed *)
  Helpers.check_close "hidden dma frac" 0.5 p.Profile.hidden_dma_frac;
  (* RMA level: all exposed *)
  Helpers.check_close "hidden rma frac" 0.0 p.Profile.hidden_rma_frac;
  Alcotest.(check bool) "renders" true
    (contains (Profile.to_text p) "hidden")

let test_profile_empty () =
  let p = Profile.analyze [] in
  Helpers.check_close "span" 0.0 p.Profile.span;
  check Alcotest.int "no lanes" 0 (List.length p.Profile.lanes);
  (* no communication at all: nothing was exposed *)
  Helpers.check_close "hidden dma" 1.0 p.Profile.hidden_dma_frac;
  Helpers.check_close "hidden rma" 1.0 p.Profile.hidden_rma_frac

let tiny_config = Config.tiny ()

let traced_tiny ?(options = Options.all_on) spec =
  Runner.traced (compile_exn ~options ~config:tiny_config spec)

let test_profile_partition_real () =
  (* on a real traced run, the five states partition every CPE's span
     exactly — the acceptance invariant (1.0 within 1e-9) *)
  let trace, _ = traced_tiny (Spec.make ~m:32 ~n:32 ~k:128 ()) in
  let p = Obs_bridge.profile trace in
  check Alcotest.int "one lane per CPE" 4 (List.length p.Profile.lanes);
  List.iter
    (fun l ->
      Helpers.check_close ~tol:1e-9
        ("fractions sum to 1: " ^ l.Profile.track)
        1.0
        (lane_partition_sum l /. p.Profile.span))
    p.Profile.lanes;
  Helpers.check_close ~tol:1e-9 "aggregate fractions sum to 1" 1.0
    (p.Profile.compute_frac +. p.Profile.exposed_dma_frac
   +. p.Profile.exposed_rma_frac +. p.Profile.barrier_frac
   +. p.Profile.idle_frac)

let test_profile_hiding_sanity () =
  (* the software pipeline's whole point: with hiding on, more DMA time is
     hidden behind compute than without it *)
  let spec = Spec.make ~m:32 ~n:32 ~k:256 () in
  let t_full, _ = traced_tiny spec in
  let t_nohide, _ = traced_tiny ~options:Options.with_rma spec in
  let p_full = Obs_bridge.profile t_full in
  let p_nohide = Obs_bridge.profile t_nohide in
  Alcotest.(check bool)
    (Printf.sprintf "hiding raises hidden DMA fraction (%.2f vs %.2f)"
       p_full.Profile.hidden_dma_frac p_nohide.Profile.hidden_dma_frac)
    true
    (p_full.Profile.hidden_dma_frac > p_nohide.Profile.hidden_dma_frac)

let test_obs_bridge_chrome () =
  let trace, _ = traced_tiny (Spec.make ~m:32 ~n:32 ~k:64 ()) in
  let sink = Span.create () in
  Obs_bridge.to_chrome trace
    ~mesh:(tiny_config.Config.mesh_rows, tiny_config.Config.mesh_cols)
    sink;
  check Alcotest.int "every event exported"
    (List.length (Trace.events trace))
    (Span.length sink);
  let s = Json.to_string (Span.to_chrome sink) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    [
      "\"traceEvents\"";
      "\"kernel\"";
      "\"dma_get\"";
      "CPE(0,0)";
      "\"displayTimeUnit\":\"ms\"";
    ]

let test_roofline () =
  let r ai =
    Profile.roofline ~flops:(ai *. 1e9) ~bytes:1e9 ~seconds:1.0
      ~peak_gflops:100.0 ~bw_gbytes_per_s:10.0
  in
  Helpers.check_close "ridge" 10.0 (r 20.0).Profile.ridge;
  check Alcotest.string "compute bound" "compute-bound"
    (Profile.verdict_to_string (r 20.0).Profile.verdict);
  check Alcotest.string "memory bound" "memory-bound"
    (Profile.verdict_to_string (r 1.0).Profile.verdict);
  check Alcotest.string "balanced" "balanced"
    (Profile.verdict_to_string (r 10.0).Profile.verdict);
  Helpers.check_close "attainable caps at bw" 10.0
    (r 1.0).Profile.attainable_gflops

(* ------------------------------------------------------------------ *)
(* Zero overhead when off                                               *)
(* ------------------------------------------------------------------ *)

let test_zero_overhead_when_off () =
  (* installing a registry must not change any simulated result: the
     simulation is deterministic in simulated time, so seconds and gflops
     are bit-equal with and without instrumentation *)
  let spec = Spec.make ~m:32 ~n:32 ~k:128 () in
  let run () =
    Runner.measure (compile_exn ~config:tiny_config spec)
  in
  let off = run () in
  let r = Metrics.create () in
  Metrics.install r;
  let on = Fun.protect ~finally:Metrics.uninstall run in
  check (Alcotest.float 0.0) "identical seconds" off.Runner.seconds
    on.Runner.seconds;
  check (Alcotest.float 0.0) "identical gflops" off.Runner.gflops
    on.Runner.gflops;
  (* and the run did record something while on *)
  Alcotest.(check bool) "metrics recorded" true
    (List.length (Metrics.snapshot r) > 0)

(* Construction order must not leak into the rendered snapshot: metric
   keys and label sets are sorted, so text and JSON are byte-identical
   however the instruments were created (the --jobs determinism story). *)
let test_snapshot_order_independent () =
  let build specs =
    let r = Metrics.create () in
    List.iter (fun (name, labels) -> Metrics.incr (Metrics.counter r ~labels name)) specs;
    r
  in
  let r1 =
    build [ ("x", [ ("a", "1"); ("b", "2") ]); ("y", []); ("x", [ ("a", "9") ]) ]
  in
  let r2 =
    build [ ("x", [ ("a", "9") ]); ("x", [ ("b", "2"); ("a", "1") ]); ("y", []) ]
  in
  check Alcotest.string "same text"
    (Metrics.to_text (Metrics.snapshot r1))
    (Metrics.to_text (Metrics.snapshot r2));
  check Alcotest.string "same json"
    (Json.to_string (Metrics.to_json (Metrics.snapshot r1)))
    (Json.to_string (Metrics.to_json (Metrics.snapshot r2)))

let tests =
  [
    ("instrument identity & kinds", `Quick, test_instrument_identity);
    ( "snapshot independent of construction order",
      `Quick,
      test_snapshot_order_independent );
    ("histogram buckets", `Quick, test_histogram_buckets);
    test_histogram_conservation;
    ("snapshot diff/merge round-trip", `Quick, test_snapshot_diff_merge);
    ("ambient registry", `Quick, test_ambient_registry);
    ("json escaping", `Quick, test_json_escaping);
    ("span chrome export", `Quick, test_span_chrome_export);
    ("ambient span", `Quick, test_ambient_span);
    ("profile: hand-built lanes", `Quick, test_profile_hand_built);
    ("profile: empty input", `Quick, test_profile_empty);
    ("profile: real run partitions to 1.0", `Quick, test_profile_partition_real);
    ("profile: hiding raises hidden fraction", `Quick, test_profile_hiding_sanity);
    ("obs bridge: chrome trace", `Quick, test_obs_bridge_chrome);
    ("roofline verdicts", `Quick, test_roofline);
    ("zero overhead when off", `Quick, test_zero_overhead_when_off);
  ]
