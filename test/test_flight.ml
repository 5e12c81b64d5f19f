(* Tests of the forensic observability added in this layer: the bounded
   flight-recorder ring (Sw_obs.Flight), the structured JSON-lines event
   log (Sw_obs.Log), the dump-on-failure triggers wired through
   Compile/Store, and the determinism of
   absorbed log order under the pool width. *)

open Sw_obs
open Sw_core
open Sw_arch

let check = Alcotest.check
let qtest = Helpers.qtest

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "swgemm-flight.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

(* ------------------------------------------------------------------ *)
(* Ring-buffer bounds                                                   *)
(* ------------------------------------------------------------------ *)

let ring_inputs = QCheck.(pair (int_range 1 16) (int_range 0 100))

let test_flight_ring_bounds =
  qtest "flight: ring keeps the last min(n,capacity) records" ring_inputs
    (fun (capacity, n) ->
      let t = Flight.create ~capacity ~clock:(fun () -> 0.0) () in
      for i = 1 to n do
        Flight.note t ~kind:"k" (Json.Int i)
      done;
      let kept = min n capacity in
      Flight.length t = kept
      && Flight.dropped t = max 0 (n - capacity)
      && List.map (fun r -> r.Flight.body) (Flight.records t)
         = List.init kept (fun i -> Json.Int (n - kept + i + 1)))

(* ------------------------------------------------------------------ *)
(* JSON lines                                                           *)
(* ------------------------------------------------------------------ *)

let test_log_line_nan_inf () =
  let e =
    {
      Log.seq = 3;
      ts = Float.nan;
      level = Log.Warn;
      scope = "s";
      name = "n";
      fields =
        [ ("a", Log.F Float.nan); ("b", Log.F Float.infinity);
          ("c", Log.F Float.neg_infinity) ];
    }
  in
  let line = Log.to_line e in
  check Alcotest.bool "nan/inf render as null" true
    (Helpers.contains line "\"a\":null" && Helpers.contains line "\"b\":null");
  match Json.parse line with
  | Error err -> Alcotest.failf "not strict JSON: %s" err
  | Ok j ->
      check Alcotest.bool "nan ts renders as null" true
        (Json.member "ts" j = Some Json.Null)

(* ------------------------------------------------------------------ *)
(* Off by default                                                       *)
(* ------------------------------------------------------------------ *)

let test_inert_when_uninstalled () =
  check Alcotest.bool "no flight" false (Flight.enabled ());
  check Alcotest.bool "no log" false (Log.enabled ());
  (* all of these must be no-ops, not errors *)
  Flight.record ~kind:"k" Json.Null;
  Log.info ~scope:"s" "e" [];
  check (Alcotest.option Alcotest.string) "trigger without recorder" None
    (Flight.trigger ~reason:"r")

(* ------------------------------------------------------------------ *)
(* Dump-on-error: exactly once per escaped failure                      *)
(* ------------------------------------------------------------------ *)

let bad_options = { Options.use_asm = true; use_rma = false; hiding = true }

let test_dump_once_per_failure () =
  let dir = fresh_dir () in
  Flight.install (Flight.create ~dir ());
  Fun.protect ~finally:Flight.uninstall @@ fun () ->
  let config = Config.tiny () in
  let spec = Spec.make ~m:64 ~n:64 ~k:64 () in
  (match Session.run (Session.create ~options:bad_options ~arch:config ()) spec with
  | Error (Error.Invalid _) -> ()
  | _ -> Alcotest.fail "expected a typed Invalid error");
  check Alcotest.int "one dump per failure" 1 (Array.length (Sys.readdir dir));
  (* a successful compile dumps nothing *)
  (match Session.run (Session.create ~arch:config ()) spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expected success, got %s" (Error.to_string e));
  check Alcotest.int "success adds no dump" 1 (Array.length (Sys.readdir dir));
  (* a second failure dumps exactly once more *)
  (match Session.run (Session.create ~options:bad_options ~arch:config ()) spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure");
  check Alcotest.int "two failures, two dumps" 2
    (Array.length (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* A failed compile -> flightrec with the recent store narrative        *)
(* ------------------------------------------------------------------ *)

let test_flightrec_on_error () =
  let dir = fresh_dir () in
  Flight.install (Flight.create ~dir ());
  Log.install (Log.create ~min_level:Log.Debug ~clock:(fun () -> 0.0) ());
  Fun.protect ~finally:(fun () ->
      Flight.uninstall ();
      Log.uninstall ())
  @@ fun () ->
  (* a couple of store operations land in the log, and through it in the
     flight ring, before the failure *)
  let store =
    Sw_host.Store.open_ ~schema:Compile.store_schema ~dir:(fresh_dir ()) ()
  in
  let key = Digest.to_hex (Digest.string "flight-test") in
  Sw_host.Store.put store ~key "payload";
  (match Sw_host.Store.get store ~key with
  | Some _ -> ()
  | None -> Alcotest.fail "store get missed");
  let session =
    Session.create ~options:bad_options ~store ~arch:(Config.tiny ()) ()
  in
  (match Session.run session (Spec.make ~m:64 ~n:64 ~k:64 ()) with
  | Error (Error.Invalid _) -> ()
  | _ -> Alcotest.fail "expected a typed Invalid error");
  (* the failure's dump holds the logged store operations *)
  let dumps =
    Array.to_list (Sys.readdir dir)
    |> List.map (fun f ->
           match Json.parse_file (Filename.concat dir f) with
           | Ok j -> j
           | Error e -> Alcotest.failf "invalid dump %s: %s" f e)
  in
  let reason j =
    Option.bind (Json.member "reason" j) Json.to_string_opt
  in
  match List.find_opt (fun j -> reason j = Some "error.invalid") dumps with
  | None -> Alcotest.fail "no flightrec with reason error.invalid"
  | Some j ->
      let records =
        match Json.member "records" j with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "dump has no records"
      in
      let kind_of r =
        Option.bind (Json.member "kind" r) Json.to_string_opt
      in
      let scope_of r =
        Option.bind (Json.member "body" r) (fun b ->
            Option.bind (Json.member "scope" b) Json.to_string_opt)
      in
      check Alcotest.bool "store narrative recorded" true
        (List.exists
           (fun r -> kind_of r = Some "log" && scope_of r = Some "store")
           records)

(* ------------------------------------------------------------------ *)
(* Absorbed log order is invariant under --jobs                         *)
(* ------------------------------------------------------------------ *)

(* The lines a logger streaming to a file receives while a pool of width
   [jobs] runs [body] over tasks 0..[tasks]-1. *)
let pool_log_lines ~jobs ~tasks body =
  let path = Filename.temp_file "swgemm-log" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Log.install (Log.create ~clock:(fun () -> 0.0) ~out:oc ());
  Fun.protect
    ~finally:(fun () ->
      Log.uninstall ();
      close_out oc)
    (fun () ->
      Sw_host.Pool.with_pool ~jobs (fun pool ->
          ignore (Sw_host.Pool.map pool body (List.init tasks Fun.id))));
  In_channel.with_open_text path In_channel.input_lines

let test_jobs_invariant_log_order () =
  let run jobs =
    pool_log_lines ~jobs ~tasks:8 (fun i ->
        Log.info ~scope:"task" "start" [ ("i", Log.I i) ];
        Log.info ~scope:"task" "finish" [ ("i", Log.I i) ])
  in
  let sequential = run 1 in
  check Alcotest.int "events present" 16 (List.length sequential);
  check
    (Alcotest.list Alcotest.string)
    "byte-identical lines for --jobs 4" sequential (run 4);
  check
    (Alcotest.list Alcotest.string)
    "byte-identical lines for --jobs 3" sequential (run 3)

(* A task may log any number of events: nothing between a worker's logger
   and the parent's channel is bounded. *)
let test_jobs_invariant_long_log () =
  let run jobs =
    pool_log_lines ~jobs ~tasks:2 (fun i ->
        for j = 1 to 5_000 do
          Log.info ~scope:"task" "step" [ ("i", Log.I i); ("j", Log.I j) ]
        done)
  in
  let sequential = run 1 in
  check Alcotest.int "every event written" 10_000 (List.length sequential);
  List.iter
    (fun jobs ->
      let lines = run jobs in
      check Alcotest.int
        (Printf.sprintf "every event written for --jobs %d" jobs)
        10_000 (List.length lines);
      check Alcotest.bool
        (Printf.sprintf "byte-identical lines for --jobs %d" jobs)
        true (lines = sequential))
    [ 2; 4 ]

let tests =
  [
    test_flight_ring_bounds;
    Alcotest.test_case "log: nan/inf fields render null, stay strict JSON" `Quick
      test_log_line_nan_inf;
    Alcotest.test_case "flight/log: inert when uninstalled" `Quick
      test_inert_when_uninstalled;
    Alcotest.test_case "flight: exactly one dump per escaped failure" `Quick
      test_dump_once_per_failure;
    Alcotest.test_case "flight: error dump carries the store narrative"
      `Quick test_flightrec_on_error;
    Alcotest.test_case "log: absorbed order invariant under --jobs" `Quick
      test_jobs_invariant_log_order;
    Alcotest.test_case "log: 5000-event tasks write every line under --jobs"
      `Quick test_jobs_invariant_long_log;
  ]
