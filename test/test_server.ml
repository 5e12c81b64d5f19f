(* Tests of the compile service stack (lib/host/{wire,ratelimit,server}
   + lib/core/service): wire codec round-trips and totality under
   hostile input, token-bucket shaping under an injected clock, the
   full handle_line request path (shed accounting, typed error
   classes), a loopback TCP smoke through the real client, and the
   graceful-drain contract — a server killed mid-burst leaves the
   durable store with served_corrupt = 0. *)

open Sw_arch

let check = Alcotest.check
let qtest = Helpers.qtest

module Json = Sw_obs.Json
module Wire = Sw_host.Wire
module Server = Sw_host.Server
module Ratelimit = Sw_host.Ratelimit

(* ------------------------------------------------------------------ *)
(* Wire codec                                                           *)
(* ------------------------------------------------------------------ *)

(* Identifiers and methods the protocol actually ships: printable,
   newline-free. *)
let gen_token =
  QCheck.Gen.(
    map
      (fun cs -> String.init (List.length cs) (List.nth cs))
      (list_size (int_range 0 24)
         (oneof
            [
              char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
              oneofl [ '-'; '_'; '.'; ' '; ':'; '/' ];
            ])))

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) (int_range (-1000) 1000);
              map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
              map (fun s -> Json.String s) gen_token;
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Json.List l) (list_size (int_range 0 3) (self 0));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 3) (pair gen_token (self 0)));
            ]))

let arb_request =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (id, meth, params) -> { Wire.id; meth; params })
        (triple gen_token gen_token gen_json))
    ~print:(fun r -> Wire.encode_request r)

let test_request_roundtrip =
  qtest "wire round-trips every request" arb_request (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Error.to_string e))

let arb_response =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (rid, body) -> { Wire.rid; body })
        (pair gen_token
           (oneof
              [
                map Result.ok gen_json;
                map
                  (fun (c, m) ->
                    Result.Error { Wire.err_class = c; message = m })
                  (pair gen_token gen_token);
              ])))
    ~print:(fun r -> Wire.encode_response r)

let test_response_roundtrip =
  qtest "wire round-trips every response" arb_response (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Error.to_string e))

(* Decoding arbitrary bytes must be total: Ok or a typed invalid,
   never an exception. *)
let test_decoder_total =
  qtest "decoder is total on arbitrary bytes" ~count:500
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Wire.decode_request s with
      | Ok _ -> true
      | Error e -> Error.class_of e = "invalid")

let expect_invalid what = function
  | Ok _ -> Alcotest.failf "%s: decoded, expected invalid" what
  | Error e -> check Alcotest.string what "invalid" (Error.class_of e)

let test_protocol_violations () =
  expect_invalid "garbage" (Wire.decode_request "{nope");
  expect_invalid "non-object" (Wire.decode_request "[1,2]");
  expect_invalid "missing id"
    (Wire.decode_request {|{"v":1,"method":"ping"}|});
  expect_invalid "missing method" (Wire.decode_request {|{"v":1,"id":"1"}|});
  expect_invalid "mistyped id"
    (Wire.decode_request {|{"v":1,"id":7,"method":"ping"}|});
  expect_invalid "unknown version"
    (Wire.decode_request {|{"v":2,"id":"1","method":"ping"}|});
  let oversized =
    Printf.sprintf {|{"v":1,"id":"1","method":"ping","params":"%s"}|}
      (String.make Wire.max_frame_bytes 'x')
  in
  expect_invalid "oversized frame" (Wire.decode_request oversized)

(* ------------------------------------------------------------------ *)
(* Token bucket under an injected clock                                 *)
(* ------------------------------------------------------------------ *)

let test_ratelimit_shapes () =
  let now = ref 0.0 in
  let rl = Ratelimit.create ~now:(fun () -> !now) ~rate_per_s:2.0 ~burst:3 () in
  (* Burst capacity, then dry. *)
  for i = 1 to 3 do
    check Alcotest.bool (Printf.sprintf "burst admit %d" i) true
      (Ratelimit.try_admit rl ~key:"a")
  done;
  check Alcotest.bool "burst exhausted" false (Ratelimit.try_admit rl ~key:"a");
  (match Ratelimit.admit rl ~key:"a" with
  | Error (Error.Overloaded { limit; _ }) ->
      check Alcotest.int "limit = sustained rate" 2 limit
  | _ -> Alcotest.fail "expected Overloaded");
  check Alcotest.string "refusal class" "overloaded"
    (match Ratelimit.admit rl ~key:"a" with
    | Error e -> Error.class_of e
    | Ok () -> "ok");
  (* Refill is continuous: after half a second at 2/s, one token. *)
  now := !now +. 0.5;
  check Alcotest.bool "refilled one token" true (Ratelimit.try_admit rl ~key:"a");
  check Alcotest.bool "only one" false (Ratelimit.try_admit rl ~key:"a");
  (* Other keys are independent buckets. *)
  check Alcotest.bool "fresh key has its own burst" true
    (Ratelimit.try_admit rl ~key:"b");
  (* Idle refill caps at burst. *)
  now := !now +. 1000.0;
  Helpers.check_close "capped at burst" 3.0 (Ratelimit.tokens rl ~key:"a");
  (* A clock regression must not mint tokens. *)
  let before = Ratelimit.tokens rl ~key:"a" in
  now := !now -. 50.0;
  check Alcotest.bool "regression mints nothing" true
    (Ratelimit.tokens rl ~key:"a" <= before)

(* ------------------------------------------------------------------ *)
(* handle_line: the request path minus the socket                       *)
(* ------------------------------------------------------------------ *)

let echo_handler ~client:_ ~meth ~params =
  match meth with
  | "echo" -> Ok params
  | "boom" -> Error (Error.Invalid "synthetic failure")
  | m -> Error (Error.Invalid ("unknown method " ^ m))

let request ?(id = "1") ?(params = Json.Null) meth =
  Wire.encode_request { Wire.id; meth; params }

let decode_exn line =
  match Wire.decode_response line with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response: %s" (Error.to_string e)

let test_handle_line_path () =
  let server = Server.create ~handler:echo_handler () in
  let reply =
    decode_exn
      (Server.handle_line server ~client:"t"
         (request ~id:"42" ~params:(Json.Int 7) "echo"))
  in
  check Alcotest.string "id echoed" "42" reply.Wire.rid;
  (match reply.Wire.body with
  | Ok (Json.Int 7) -> ()
  | _ -> Alcotest.fail "expected params echoed back");
  (* A handler error becomes an error frame with the stable class. *)
  (match (decode_exn (Server.handle_line server ~client:"t" (request "boom"))).Wire.body with
  | Result.Error { Wire.err_class = "invalid"; _ } -> ()
  | _ -> Alcotest.fail "expected invalid error frame");
  (* A malformed frame earns an error response, never a crash. *)
  (match (decode_exn (Server.handle_line server ~client:"t" "}{")).Wire.body with
  | Result.Error { Wire.err_class = "invalid"; _ } -> ()
  | _ -> Alcotest.fail "expected invalid for malformed frame");
  let s = Server.stats server in
  check Alcotest.int "served counts every frame" 3 s.Server.served;
  check Alcotest.int "two errored" 2 s.Server.errored;
  check Alcotest.int "none shed" 0 s.Server.shed

let test_handle_line_sheds () =
  let now = ref 0.0 in
  let rl = Ratelimit.create ~now:(fun () -> !now) ~rate_per_s:1.0 ~burst:1 () in
  let server = Server.create ~ratelimit:rl ~handler:echo_handler () in
  let call () =
    (decode_exn (Server.handle_line server ~client:"peer" (request "echo"))).Wire.body
  in
  (match call () with Ok _ -> () | _ -> Alcotest.fail "first admitted");
  (match call () with
  | Result.Error { Wire.err_class = "overloaded"; _ } -> ()
  | _ -> Alcotest.fail "second shed as overloaded");
  now := 1.0;
  (match call () with Ok _ -> () | _ -> Alcotest.fail "refilled after 1 s");
  let s = Server.stats server in
  check Alcotest.int "shed counted" 1 s.Server.shed;
  check Alcotest.int "errored includes shed" 1 s.Server.errored;
  check Alcotest.int "served all three" 3 s.Server.served

(* ------------------------------------------------------------------ *)
(* Loopback smoke: real sockets, real client                            *)
(* ------------------------------------------------------------------ *)

let tiny_service () =
  let session = Sw_core.Session.create ~arch:(Config.tiny ()) () in
  Sw_core.Service.create ~session ()

(* Wired as swgemmd wires it: the default admission gate in front of the
   real service. Requests are deterministic, so one client's malformed
   compiles must not change what another client's valid compile gets. *)
let test_failures_do_not_refuse_others () =
  let service = tiny_service () in
  let server =
    Server.create ~supervisor:(Sw_host.Supervise.create ())
      ~handler:(Sw_core.Service.handler service)
      ()
  in
  let compile ~client ~id params =
    (decode_exn
       (Server.handle_line server ~client (request ~id ~params "compile")))
      .Wire.body
  in
  for i = 1 to 6 do
    match
      compile ~client:"mallory" ~id:(string_of_int i)
        (Json.Obj [ ("spec", Json.String "not a spec") ])
    with
    | Result.Error { Wire.err_class = "invalid"; _ } -> ()
    | Result.Error { Wire.err_class; message } ->
        Alcotest.failf "malformed compile %d: want invalid, got %s: %s" i
          err_class message
    | Ok _ -> Alcotest.failf "malformed compile %d answered ok" i
  done;
  let spec = Sw_core.Spec.make ~m:32 ~n:32 ~k:32 () in
  (match
     compile ~client:"alice" ~id:"7"
       (Json.Obj [ ("spec", Sw_core.Spec.to_json spec) ])
   with
  | Ok _ -> ()
  | Result.Error { Wire.err_class; message } ->
      Alcotest.failf "valid compile refused: %s: %s" err_class message);
  let s = Server.stats server in
  check Alcotest.int "six errored" 6 s.Server.errored;
  check Alcotest.int "none shed" 0 s.Server.shed

let test_loopback_smoke () =
  let service = tiny_service () in
  let server =
    Server.create ~handler:(Sw_core.Service.handler service) ()
  in
  let port = Server.listen_tcp server ~port:0 () in
  let serving = Thread.create (fun () -> Server.serve server) () in
  let client = Sw_host.Client.connect_tcp ~port () in
  (match Sw_host.Client.call client ~meth:"ping" ~params:Json.Null () with
  | Ok body ->
      check Alcotest.bool "pong" true
        (Json.member "pong" body = Some (Json.Bool true))
  | Error e -> Alcotest.failf "ping: %s" e.Wire.message);
  let spec = Sw_core.Spec.make ~m:32 ~n:32 ~k:32 () in
  let params = Json.Obj [ ("spec", Sw_core.Spec.to_json spec) ] in
  (match Sw_host.Client.call client ~meth:"compile" ~params () with
  | Ok body ->
      check Alcotest.bool "compile returns C" true
        (match Json.member "mpe_c" body with
        | Some (Json.String s) -> String.length s > 0
        | _ -> false)
  | Error e -> Alcotest.failf "compile: %s" e.Wire.message);
  (match Sw_host.Client.call client ~meth:"nonsense" ~params:Json.Null () with
  | Result.Error { Wire.err_class = "invalid"; _ } -> ()
  | _ -> Alcotest.fail "unknown method must earn invalid");
  Sw_host.Client.close client;
  Server.drain server;
  Thread.join serving;
  let s = Server.stats server in
  check Alcotest.int "three requests served" 3 s.Server.served;
  check Alcotest.int "one connection" 1 s.Server.connections

(* ------------------------------------------------------------------ *)
(* The profile method and service extensions                            *)
(* ------------------------------------------------------------------ *)

let test_profile_method () =
  let service = tiny_service () in
  let spec = Sw_core.Spec.make ~m:32 ~n:32 ~k:32 () in
  let params = Json.Obj [ ("spec", Sw_core.Spec.to_json spec) ] in
  (match Sw_core.Service.handle ~client:"t" ~meth:"profile" ~params service with
  | Error e -> Alcotest.failf "profile: %s" (Sw_arch.Error.to_string e)
  | Ok body ->
      let num name =
        match Option.bind (Json.member name body) Json.to_float_opt with
        | Some v -> v
        | None -> Alcotest.failf "profile body lacks numeric %S" name
      in
      check Alcotest.bool "gflops positive" true (num "gflops" > 0.0);
      check Alcotest.bool "seconds positive" true (num "seconds" > 0.0);
      check Alcotest.bool "exact is a bool" true
        (Option.bind (Json.member "exact" body) Json.to_bool_opt <> None);
      check Alcotest.bool "echoes the spec" true
        (Json.member "spec" body <> None);
      check Alcotest.bool "reports the padded spec" true
        (Json.member "padded" body <> None);
      check Alcotest.string "body is byte-stable"
        "{\"gflops\":0.17783114539778594,\"seconds\":0.00036852937011345343,\
         \"exact\":true,\
         \"spec\":{\"m\":32,\"n\":32,\"k\":32,\"alpha\":1,\"beta\":1,\
         \"ta\":false,\"tb\":false},\
         \"padded\":{\"m\":32,\"n\":32,\"k\":32,\"alpha\":1,\"beta\":1,\
         \"ta\":false,\"tb\":false},\
         \"options\":{\"use_asm\":true,\"use_rma\":true,\"hiding\":true},\
         \"spm_bytes\":640}"
        (Json.to_string body));
  (* totality: profile on malformed params is a typed invalid, no raise *)
  (match
     Sw_core.Service.handle ~client:"t" ~meth:"profile" ~params:Json.Null
       service
   with
  | Error e ->
      check Alcotest.string "missing spec is invalid" "invalid"
        (Sw_arch.Error.class_of e)
  | Ok _ -> Alcotest.fail "profile without spec must fail");
  match
    Sw_core.Service.handle ~client:"t" ~meth:"profile"
      ~params:(Json.Obj [ ("spec", Json.String "nope") ])
      service
  with
  | Error e ->
      check Alcotest.string "bad spec is invalid" "invalid"
        (Sw_arch.Error.class_of e)
  | Ok _ -> Alcotest.fail "profile with bad spec must fail"

let test_extension_dispatch () =
  let session = Sw_core.Session.create ~arch:(Config.tiny ()) () in
  let echo params = Ok (Json.Obj [ ("echo", params) ]) in
  let service =
    Sw_core.Service.create ~extensions:[ ("echo", echo) ] ~session ()
  in
  (match
     Sw_core.Service.handle ~client:"t" ~meth:"echo"
       ~params:(Json.String "hi") service
   with
  | Ok body ->
      check Alcotest.bool "extension answered" true
        (Json.member "echo" body = Some (Json.String "hi"))
  | Error e -> Alcotest.failf "echo: %s" (Sw_arch.Error.to_string e));
  (* unknown methods list builtins and mounted extensions *)
  (match
     Sw_core.Service.handle ~client:"t" ~meth:"nonsense" ~params:Json.Null
       service
   with
  | Error (Error.Invalid msg) ->
      let contains affix =
        let n = String.length affix and m = String.length msg in
        let rec at i = i + n <= m && (String.sub msg i n = affix || at (i + 1)) in
        at 0
      in
      check Alcotest.bool "profile listed" true (contains "profile");
      check Alcotest.bool "echo listed" true (contains "echo")
  | _ -> Alcotest.fail "unknown method must earn invalid");
  (* an extension cannot shadow a builtin *)
  match
    Sw_core.Service.create ~extensions:[ ("compile", echo) ] ~session ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shadowing builtin must be rejected"

(* ------------------------------------------------------------------ *)
(* Graceful drain: mid-burst SIGTERM-equivalent, store stays clean      *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then rm dir

let test_drain_store_integrity () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "swgemm-test-server.%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let schema = Sw_core.Compile.store_schema in
  let store = Sw_host.Store.open_ ~schema ~dir () in
  let session =
    Sw_core.Session.create ~store ~arch:(Config.tiny ()) ()
  in
  let service = Sw_core.Service.create ~session () in
  let server =
    Server.create ~handler:(Sw_core.Service.handler service) ()
  in
  let sock = Filename.concat dir "d.sock" in
  Server.listen_unix server ~path:sock;
  let serving = Thread.create (fun () -> Server.serve server) () in
  (* Four workers hammer distinct shapes — every one a store write —
     while the main thread drains mid-burst. Workers tolerate wire
     errors (a connection closed by drain); the invariant under test is
     the store's, not theirs. *)
  let worker w =
    match Sw_host.Client.connect_unix ~path:sock with
    | exception Unix.Unix_error _ -> ()
    | client ->
        Fun.protect ~finally:(fun () -> Sw_host.Client.close client)
        @@ fun () ->
        for i = 0 to 3 do
          let s = 16 * (1 + ((4 * w) + i)) in
          let spec = Sw_core.Spec.make ~m:s ~n:s ~k:s () in
          let params = Json.Obj [ ("spec", Sw_core.Spec.to_json spec) ] in
          ignore (Sw_host.Client.call client ~meth:"compile" ~params ())
        done
  in
  let workers = List.init 4 (fun w -> Thread.create worker w) in
  Thread.delay 0.05;
  Server.drain server;
  List.iter Thread.join workers;
  Thread.join serving;
  (* The session's live store never served corrupt bytes... *)
  (match Sw_core.Session.store_stats session with
  | Some s -> check Alcotest.int "served_corrupt (live)" 0 s.Sw_host.Store.served_corrupt
  | None -> Alcotest.fail "session has a store");
  (* ...and everything the drain left on disk re-verifies clean. *)
  let reopened = Sw_host.Store.open_ ~schema ~dir () in
  let report = Sw_host.Store.verify reopened in
  check Alcotest.int "no corrupt entries on disk" 0 report.Sw_host.Store.bad;
  check Alcotest.int "served_corrupt (reopened)" 0
    report.Sw_host.Store.report_served_corrupt;
  check Alcotest.bool "some requests completed before drain" true
    ((Server.stats server).Server.served > 0);
  rm_rf dir

let tests =
  [
    test_request_roundtrip;
    test_response_roundtrip;
    test_decoder_total;
    Alcotest.test_case "protocol violations earn typed invalid" `Quick
      test_protocol_violations;
    Alcotest.test_case "token bucket shapes under a fake clock" `Quick
      test_ratelimit_shapes;
    Alcotest.test_case "handle_line serves, errors and counts" `Quick
      test_handle_line_path;
    Alcotest.test_case "rate limiter sheds as overloaded" `Quick
      test_handle_line_sheds;
    Alcotest.test_case "failing requests do not refuse other clients" `Quick
      test_failures_do_not_refuse_others;
    Alcotest.test_case "loopback smoke: ping, compile, unknown" `Quick
      test_loopback_smoke;
    Alcotest.test_case "profile method: measures, total on bad params" `Quick
      test_profile_method;
    Alcotest.test_case "extensions dispatch and are listed" `Quick
      test_extension_dispatch;
    Alcotest.test_case "graceful drain leaves the store clean" `Quick
      test_drain_store_integrity;
  ]
