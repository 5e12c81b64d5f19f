(* Tests of the crash-safe persistent plan store (lib/host/store.ml) and
   its wiring through Compile/Session: atomic writes under injected
   crashes, quarantine-not-serve on corruption, schema staleness, LRU
   eviction, warm starts, and the seeded chaos drill — crash mid-write,
   restart, recompile — with the emitted C byte-identical throughout. *)

open Sw_core
open Sw_arch

let check = Alcotest.check

let tiny = Config.tiny ()
let schema = Compile.store_schema

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
      (Printf.sprintf "swgemm-test-store.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let object_files dir =
  let objects = Filename.concat dir "objects" in
  Array.to_list (Sys.readdir objects)
  |> List.concat_map (fun shard ->
         let sd = Filename.concat objects shard in
         if Sys.is_directory sd then
           List.map (Filename.concat sd) (Array.to_list (Sys.readdir sd))
         else [])

let flip_byte ?(pos_from_end = 1) path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string raw in
  let i = Bytes.length b - pos_from_end in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

(* ------------------------------------------------------------------ *)
(* Basics                                                               *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  check Alcotest.(option string) "miss" None (Sw_host.Store.get st ~key:"a1");
  Sw_host.Store.put st ~key:"a1" "hello";
  Sw_host.Store.put st ~key:"b2" (String.make 1000 'x');
  check Alcotest.(option string) "hit" (Some "hello")
    (Sw_host.Store.get st ~key:"a1");
  check Alcotest.bool "mem" true (Sw_host.Store.mem st "b2");
  check Alcotest.(list string) "keys" [ "a1"; "b2" ] (Sw_host.Store.keys st);
  (* a reopened store sees the same entries: the manifest and the objects
     agree *)
  let st2 = Sw_host.Store.open_ ~schema ~dir () in
  check Alcotest.(option string) "persisted" (Some "hello")
    (Sw_host.Store.get st2 ~key:"a1");
  let s = Sw_host.Store.stats st2 in
  check Alcotest.int "entries" 2 s.Sw_host.Store.entries;
  check Alcotest.int "served_corrupt" 0 s.Sw_host.Store.served_corrupt

let test_bad_key () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  (match Sw_host.Store.put st ~key:"../escape" "x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "path-traversal key accepted");
  match Sw_host.Store.get st ~key:"" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty key accepted"

let test_put_overwrites () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Store.put st ~key:"k" "v1";
  Sw_host.Store.put st ~key:"k" "v2";
  check Alcotest.(option string) "latest wins" (Some "v2")
    (Sw_host.Store.get st ~key:"k");
  check Alcotest.int "one entry" 1 (Sw_host.Store.stats st).Sw_host.Store.entries

(* ------------------------------------------------------------------ *)
(* Crash atomicity: each injection site, crash then reopen              *)
(* ------------------------------------------------------------------ *)

let expect_crash f =
  match f () with
  | exception Sw_host.Crash.Crashed _ -> ()
  | _ -> Alcotest.fail "armed crash did not fire"

let test_crash_at_stage () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Store.put st ~key:"old" "safe";
  Sw_host.Crash.with_plan
    (Sw_host.Crash.plan [ ("store.put.stage", 1, Sw_host.Crash.Raise) ])
    (fun () ->
      expect_crash (fun () -> Sw_host.Store.put st ~key:"torn" "lost"));
  (* nothing committed: the new key is absent, the old one intact, and the
     staged temp file is debris the next open discards *)
  let st2 = Sw_host.Store.open_ ~schema ~dir () in
  check Alcotest.(option string) "old intact" (Some "safe")
    (Sw_host.Store.get st2 ~key:"old");
  check Alcotest.(option string) "torn absent" None
    (Sw_host.Store.get st2 ~key:"torn");
  check Alcotest.(list string) "tmp empty" []
    (Array.to_list (Sys.readdir (Filename.concat dir "tmp")))

let test_crash_at_commit () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Crash.with_plan
    (Sw_host.Crash.plan [ ("store.put.commit", 1, Sw_host.Crash.Raise) ])
    (fun () ->
      expect_crash (fun () -> Sw_host.Store.put st ~key:"committed" "kept"));
  (* the object was renamed into place before the crash: a reopen adopts
     it from the directory scan even though no manifest mentions it *)
  let st2 = Sw_host.Store.open_ ~schema ~dir () in
  check Alcotest.(option string) "adopted" (Some "kept")
    (Sw_host.Store.get st2 ~key:"committed")

let test_crash_at_manifest () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Crash.with_plan
    (Sw_host.Crash.plan [ ("store.manifest", 1, Sw_host.Crash.Raise) ])
    (fun () ->
      expect_crash (fun () -> Sw_host.Store.put st ~key:"k1" "v1"));
  let st2 = Sw_host.Store.open_ ~schema ~dir () in
  check Alcotest.(option string) "recovered from scan" (Some "v1")
    (Sw_host.Store.get st2 ~key:"k1")

(* ------------------------------------------------------------------ *)
(* Corruption and staleness                                             *)
(* ------------------------------------------------------------------ *)

let test_corruption_quarantined () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Store.put st ~key:"victim" "precious-payload";
  (match object_files dir with
  | [ path ] -> flip_byte path
  | files -> Alcotest.failf "expected 1 object, found %d" (List.length files));
  (* the flipped entry fails its checksum: reported as a miss, moved to
     quarantine/, never returned *)
  check Alcotest.(option string) "corrupt not served" None
    (Sw_host.Store.get st ~key:"victim");
  let s = Sw_host.Store.stats st in
  check Alcotest.int "quarantined" 1 s.Sw_host.Store.quarantined;
  check Alcotest.int "served_corrupt" 0 s.Sw_host.Store.served_corrupt;
  check Alcotest.bool "moved aside" true
    (Array.length (Sys.readdir (Filename.concat dir "quarantine")) = 1);
  (* a rewrite heals the key *)
  Sw_host.Store.put st ~key:"victim" "fresh";
  check Alcotest.(option string) "healed" (Some "fresh")
    (Sw_host.Store.get st ~key:"victim")

let test_verify_quarantines () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema ~dir () in
  Sw_host.Store.put st ~key:"good" "ok";
  Sw_host.Store.put st ~key:"bad" "doomed-payload";
  List.iter
    (fun p ->
      if Filename.basename p = "bad" then flip_byte p)
    (object_files dir);
  let r = Sw_host.Store.verify st in
  check Alcotest.int "checked" 2 r.Sw_host.Store.checked;
  check Alcotest.int "ok" 1 r.Sw_host.Store.ok;
  check Alcotest.int "bad" 1 r.Sw_host.Store.bad;
  check Alcotest.int "served_corrupt" 0 r.Sw_host.Store.report_served_corrupt;
  check Alcotest.(option string) "good still served" (Some "ok")
    (Sw_host.Store.get st ~key:"good")

let test_stale_schema_deleted () =
  with_dir @@ fun dir ->
  let st = Sw_host.Store.open_ ~schema:"generation-A" ~dir () in
  Sw_host.Store.put st ~key:"k" "old-generation";
  let st2 = Sw_host.Store.open_ ~schema:"generation-B" ~dir () in
  (* a different generation must never be decoded: deleted on sight,
     counted as stale, not quarantined *)
  check Alcotest.(option string) "stale is a miss" None
    (Sw_host.Store.get st2 ~key:"k");
  let s = Sw_host.Store.stats st2 in
  check Alcotest.int "stale" 1 s.Sw_host.Store.stale;
  check Alcotest.int "quarantined" 0 s.Sw_host.Store.quarantined

(* ------------------------------------------------------------------ *)
(* Eviction                                                             *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  with_dir @@ fun dir ->
  (* payloads of ~100 bytes + header: a 1000-byte budget holds ~5 *)
  let st = Sw_host.Store.open_ ~budget_bytes:1000 ~schema ~dir () in
  let key i = Printf.sprintf "k%02d" i in
  for i = 1 to 4 do
    Sw_host.Store.put st ~key:(key i) (String.make 100 'x')
  done;
  (* touch k01 so k02 is the least recently used when the budget trips *)
  ignore (Sw_host.Store.get st ~key:(key 1));
  for i = 5 to 8 do
    Sw_host.Store.put st ~key:(key i) (String.make 100 'x')
  done;
  check Alcotest.bool "over budget evicted" true
    ((Sw_host.Store.stats st).Sw_host.Store.evictions > 0);
  check Alcotest.bool "within budget" true
    ((Sw_host.Store.stats st).Sw_host.Store.bytes <= 1000);
  check Alcotest.bool "recently used survived" true
    (Sw_host.Store.mem st (key 1) && Sw_host.Store.mem st (key 8));
  check Alcotest.bool "LRU victim gone" false (Sw_host.Store.mem st (key 2));
  (* explicit gc to a tiny budget drains almost everything *)
  ignore (Sw_host.Store.gc st ~budget_bytes:1 ());
  check Alcotest.int "gc drained" 0
    (Sw_host.Store.stats st).Sw_host.Store.entries

(* ------------------------------------------------------------------ *)
(* Compile integration: warm start and byte-identity                    *)
(* ------------------------------------------------------------------ *)

let spec_of s = Spec.make ~m:s ~n:s ~k:s ()

let emitted compiled =
  Cemit.mpe_file compiled ^ "\x00" ^ Cemit.cpe_file compiled

let test_warm_start () =
  with_dir @@ fun dir ->
  let store = Sw_host.Store.open_ ~schema ~dir () in
  let s1 = Session.create ~store ~arch:tiny () in
  List.iter
    (fun s -> ignore (Compile.run_exn s1 (spec_of s)))
    [ 16; 24; 32 ];
  (* a "restarted" process: fresh store handle, fresh empty cache *)
  let store2 = Sw_host.Store.open_ ~schema ~dir () in
  let s2 = Session.create ~store:store2 ~arch:tiny () in
  check Alcotest.int "plans loaded" 3 (Session.warm_start s2);
  ignore (Compile.run_exn s2 (spec_of 24));
  (* the compile was a pure memory hit: no store traffic at all *)
  let st = Sw_host.Store.stats store2 in
  check Alcotest.int "no disk reads" 0 st.Sw_host.Store.hits;
  let cs = Option.get (Session.cache_stats s2) in
  check Alcotest.int "memory hit" 1 cs.Plan_cache.hits

let test_byte_identity_store_on_off () =
  with_dir @@ fun dir ->
  let spec = spec_of 40 in
  let reference =
    emitted (Compile.run_exn (Session.create ~no_cache:true ~arch:tiny ()) spec)
  in
  let store = Sw_host.Store.open_ ~schema ~dir () in
  let cold =
    emitted (Compile.run_exn (Session.create ~store ~arch:tiny ()) spec)
  in
  (* a second session serves the plan from disk, not the pipeline *)
  let store2 = Sw_host.Store.open_ ~schema ~dir () in
  let served =
    emitted (Compile.run_exn (Session.create ~store:store2 ~arch:tiny ()) spec)
  in
  check Alcotest.int "disk hit" 1 (Sw_host.Store.stats store2).Sw_host.Store.hits;
  check Alcotest.bool "cold = no-store" true (String.equal reference cold);
  check Alcotest.bool "served = no-store" true (String.equal reference served)

(* ------------------------------------------------------------------ *)
(* Chaos: seeded crash/corrupt/restart cycles, golden C byte-identical  *)
(* ------------------------------------------------------------------ *)

let chaos_cycles = 60

let test_chaos_cycles () =
  with_dir @@ fun dir ->
  let rng = Random.State.make [| 0xc4a05 |] in
  let shapes = [| 16; 20; 24; 28; 32; 36; 40; 44 |] in
  (* reference outputs compiled with no store at all *)
  let reference =
    Array.map
      (fun s -> emitted (Compile.run_exn (Session.create ~no_cache:true ~arch:tiny ()) (spec_of s)))
      shapes
  in
  let sites = [| "store.put.stage"; "store.put.commit"; "store.manifest" |] in
  for cycle = 1 to chaos_cycles do
    let i = Random.State.int rng (Array.length shapes) in
    let spec = spec_of shapes.(i) in
    (* one process lifetime: maybe crash somewhere in the store write *)
    let store = Sw_host.Store.open_ ~schema ~dir () in
    let session = Session.create ~store ~arch:tiny () in
    (match Random.State.int rng 3 with
    | 0 ->
        (* clean lifetime *)
        ignore (Compile.run_exn session spec)
    | 1 ->
        (* crash mid-write at a random injection site; if the entry was
           already on disk the put never runs and the compile just hits *)
        let site = sites.(Random.State.int rng (Array.length sites)) in
        Sw_host.Crash.with_plan
          (Sw_host.Crash.plan [ (site, 1, Sw_host.Crash.Raise) ])
          (fun () ->
            match Compile.run_exn session spec with
            | _ -> ()
            | exception Sw_host.Crash.Crashed _ -> ())
    | _ ->
        (* bit-rot: corrupt one random byte of one random object *)
        ignore (Compile.run_exn session spec);
        (match object_files dir with
        | [] -> ()
        | files ->
            let path = List.nth files (Random.State.int rng (List.length files)) in
            let len = (Unix.stat path).Unix.st_size in
            flip_byte ~pos_from_end:(1 + Random.State.int rng len) path));
    (* restart: reopen, recompile the same shape; whatever survived on
       disk, the emitted C must equal the storeless reference *)
    let store2 = Sw_host.Store.open_ ~schema ~dir () in
    let session2 = Session.create ~store:store2 ~arch:tiny () in
    let out = emitted (Compile.run_exn session2 spec) in
    if not (String.equal out reference.(i)) then
      Alcotest.failf "cycle %d: emitted C diverged after crash/restart" cycle;
    let r = Sw_host.Store.verify store2 in
    if r.Sw_host.Store.report_served_corrupt <> 0 then
      Alcotest.failf "cycle %d: a corrupt payload was served" cycle
  done;
  (* final sweep: the store still validates end to end *)
  let store = Sw_host.Store.open_ ~schema ~dir () in
  let r = Sw_host.Store.verify store in
  check Alcotest.int "final served_corrupt" 0
    r.Sw_host.Store.report_served_corrupt;
  check Alcotest.int "final verify leaves only good entries" r.Sw_host.Store.ok
    r.Sw_host.Store.checked

let tests =
  [
    Alcotest.test_case "roundtrip and reopen" `Quick test_roundtrip;
    Alcotest.test_case "invalid keys rejected" `Quick test_bad_key;
    Alcotest.test_case "put overwrites" `Quick test_put_overwrites;
    Alcotest.test_case "crash before rename loses nothing" `Quick
      test_crash_at_stage;
    Alcotest.test_case "crash after rename is adopted" `Quick
      test_crash_at_commit;
    Alcotest.test_case "crash at manifest recovers from scan" `Quick
      test_crash_at_manifest;
    Alcotest.test_case "corruption quarantined, never served" `Quick
      test_corruption_quarantined;
    Alcotest.test_case "verify quarantines bad entries" `Quick
      test_verify_quarantines;
    Alcotest.test_case "stale schema deleted on sight" `Quick
      test_stale_schema_deleted;
    Alcotest.test_case "LRU eviction under a byte budget" `Quick
      test_lru_eviction;
    Alcotest.test_case "warm start preloads the plan cache" `Quick
      test_warm_start;
    Alcotest.test_case "emitted C identical with store off/cold/served" `Quick
      test_byte_identity_store_on_off;
    Alcotest.test_case
      (Printf.sprintf "chaos: %d crash/corrupt/restart cycles" chaos_cycles)
      `Quick test_chaos_cycles;
  ]
