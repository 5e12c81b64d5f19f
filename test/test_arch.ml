(* Tests for the cluster simulator: engine, memory, SPM, cluster primitives
   and the AST interpreter. *)

open Sw_arch

let check = Alcotest.check
let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

(* Spawn one fiber per script and run them (see [Helpers.scripted]). *)
let run_scripts ?(event = ignore) ?labels eng scripts =
  List.iteri
    (fun i _ ->
      let label = Option.map (fun l -> List.nth l i) labels in
      ignore (Engine.spawn ?label eng))
    scripts;
  Engine.run eng ~resume:(Helpers.scripted (Array.of_list scripts)) ~event

let now_do = Helpers.now_do

let test_engine_clock () =
  let eng = Engine.create () in
  let log = ref [] in
  let after d name =
    [
      (fun f -> Engine.delay eng f d);
      now_do (fun () -> log := (name, Engine.now eng) :: !log);
    ]
  in
  let finish = run_scripts eng [ after 2.0 "a"; after 1.0 "b" ] in
  Helpers.check_close "final clock" 2.0 finish;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "order by time" [ ("b", 1.0); ("a", 2.0) ] (List.rev !log)

let test_engine_deterministic_ties () =
  (* Two fibers at the same instant run in spawn order. *)
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (run_scripts eng
       [
         [ now_do (fun () -> log := 1 :: !log) ];
         [ now_do (fun () -> log := 2 :: !log) ];
       ]);
  check Alcotest.(list int) "spawn order" [ 1; 2 ] (List.rev !log)

let test_counter_wakeup () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let log = ref [] in
  ignore
    (run_scripts eng
       [
         [
           (fun f -> Engine.await eng f c 1);
           now_do (fun () -> log := ("woken", Engine.now eng) :: !log);
         ];
         [ (fun f -> Engine.delay eng f 5.0); now_do (fun () -> Engine.counter_incr c) ];
       ]);
  check
    Alcotest.(list (pair string (float 1e-9)))
    "wake at increment" [ ("woken", 5.0) ] !log

let test_deadlock_detection () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  match run_scripts eng [ [ (fun f -> Engine.await eng f c 1) ] ] with
  | exception Error.Sim_error (Error.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected typed deadlock"

let test_deadlock_diagnosis_shape () =
  (* the quiescence report must name the fiber, the counter, the current vs
     awaited value and the park time of every blocked fiber *)
  let eng = Engine.create () in
  let c = Engine.new_counter ~name:"reply_A[0]" eng in
  match
    run_scripts eng ~labels:[ "CPE(1,2)"; "CPE(0,0)" ]
      [
        [ (fun f -> Engine.delay eng f 3.0); (fun f -> Engine.await eng f c 2) ];
        [ now_do (fun () -> Engine.counter_incr c); (fun f -> Engine.await eng f c 2) ];
      ]
  with
  | exception Error.Sim_error (Error.Deadlock d) ->
      check Alcotest.int "two blocked fibers" 2
        (List.length d.Error.fibers);
      (* sorted by fiber label *)
      let f0 = List.nth d.Error.fibers 0 and f1 = List.nth d.Error.fibers 1 in
      check Alcotest.string "first fiber" "CPE(0,0)" f0.Error.fiber;
      check Alcotest.string "second fiber" "CPE(1,2)" f1.Error.fiber;
      check Alcotest.string "counter named" "reply_A[0]" f0.Error.counter;
      check Alcotest.int "current value" 1 f0.Error.current;
      check Alcotest.int "awaited value" 2 f0.Error.awaited;
      Helpers.check_close "park time recorded" 3.0 f1.Error.parked_at;
      let msg = Error.to_string (Error.Deadlock d) in
      Alcotest.(check bool) "message names the CPE" true
        (Helpers.contains msg "CPE(1,2)");
      Alcotest.(check bool) "message names the counter" true
        (Helpers.contains msg "reply_A[0]")
  | _ -> Alcotest.fail "expected typed deadlock"

let test_deadlock_default_labels () =
  (* an unlabeled fiber is named by its id, whatever was queued before it
     was spawned *)
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  Engine.incr_after eng c ~after:5.0;
  match run_scripts eng (List.init 2 (fun _ -> [ (fun f -> Engine.await eng f c 2) ])) with
  | exception Error.Sim_error (Error.Deadlock d) ->
      check Alcotest.(list string) "labels" [ "fiber-0"; "fiber-1" ]
        (List.map (fun (b : Error.blocked) -> b.Error.fiber) d.Error.fibers)
  | _ -> Alcotest.fail "expected typed deadlock"

let test_barrier () =
  let eng = Engine.create () in
  let b = Engine.new_barrier eng ~parties:3 in
  let releases = ref [] in
  let release = now_do (fun () -> releases := Engine.now eng :: !releases) in
  let wait f = Engine.barrier_wait eng f b in
  ignore
    (run_scripts eng
       (List.init 3 (fun i ->
            [
              (fun f -> Engine.delay eng f (float_of_int i));
              wait;
              release;
              (* second round *)
              (fun f -> Engine.delay eng f 1.0);
              wait;
              release;
            ])));
  let sorted = List.sort compare !releases in
  check Alcotest.int "six releases" 6 (List.length sorted);
  (* first round releases together at t=2 (last arriver), second at t=3 *)
  List.iteri
    (fun i t ->
      Helpers.check_close
        (Printf.sprintf "release %d" i)
        (if i < 3 then 2.0 else 3.0)
        t)
    sorted

let test_channel_serialization () =
  (* Two 100-byte transfers on a 100 B/s channel: completions at 1s and 2s
     (plus latency 0.5). *)
  let eng = Engine.create () in
  let ch = Engine.new_channel ~bw_bytes_per_s:100.0 ~latency_s:0.5 in
  let done_at = ref [] in
  let send = now_do (fun () -> Engine.transfer eng ch ~bytes:100 ~event:0) in
  ignore
    (run_scripts eng [ [ send; send ] ]
       ~event:(fun _ -> done_at := Engine.now eng :: !done_at));
  check Alcotest.int "both completed" 2 (List.length !done_at);
  let sorted = List.sort compare !done_at in
  Helpers.check_close "first done" 1.5 (List.nth sorted 0);
  Helpers.check_close "second serialized" 2.5 (List.nth sorted 1)

let prop_channel_throughput =
  qtest "n transfers drain in n*bytes/bw seconds"
    QCheck.(pair (int_range 1 20) (int_range 1 1000))
    (fun (n, bytes) ->
      let eng = Engine.create () in
      let ch = Engine.new_channel ~bw_bytes_per_s:1000.0 ~latency_s:0.0 in
      let last = ref 0.0 in
      ignore
        (run_scripts eng
           [
             [
               now_do (fun () ->
                   for _ = 1 to n do
                     Engine.transfer eng ch ~bytes ~event:0
                   done);
             ];
           ]
           ~event:(fun _ -> last := Engine.now eng));
      abs_float (!last -. (float_of_int (n * bytes) /. 1000.0)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Mem                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mem_offsets () =
  let mem = Mem.create ~functional:true in
  Mem.alloc mem "A" ~dims:[ 4; 6 ];
  Mem.alloc mem "T" ~dims:[ 2; 3; 4 ];
  let handle name = Option.get (Mem.handle mem name) in
  let a = handle "A" and t = handle "T" in
  check Alcotest.int "2-D offset" ((2 * 6) + 3)
    (Mem.offset a ~batched:false ~batch:0 ~row:2 ~col:3);
  check Alcotest.int "3-D offset"
    ((1 * 3 * 4) + (2 * 4) + 1)
    (Mem.offset t ~batched:true ~batch:1 ~row:2 ~col:1);
  Alcotest.(check (array (float 0.0))) "zero-initialized" (Array.make 24 0.0)
    (Mem.data mem "T");
  check Alcotest.int "row length" 4 (Mem.dims mem "T").(2);
  Alcotest.(check bool) "unknown array" true (Mem.handle mem "Z" = None);
  (match Mem.offset a ~batched:false ~batch:0 ~row:4 ~col:0 with
  | exception Error.Sim_error (Error.Bounds b) ->
      check Alcotest.string "array named" "A" b.array_name
  | _ -> Alcotest.fail "bounds check");
  match Mem.offset a ~batched:true ~batch:0 ~row:0 ~col:0 with
  | exception Error.Sim_error (Error.Bounds _) -> ()
  | _ -> Alcotest.fail "batch into 2-D"

(* ------------------------------------------------------------------ *)
(* Spm                                                                  *)
(* ------------------------------------------------------------------ *)

let test_spm_capacity () =
  let spm = Spm.create ~capacity_bytes:1024 ~functional:true in
  let x = Spm.alloc spm "x" ~rows:4 ~cols:8 ~copies:2 in
  (match Spm.alloc spm "y" ~rows:8 ~cols:9 ~copies:1 with
  | exception Error.Sim_error (Error.Overflow o) ->
      check Alcotest.string "buffer named" "y" o.buffer;
      check Alcotest.int "needed bytes" (8 * 8 * 9) o.needed;
      check Alcotest.int "capacity" 1024 o.capacity
  | _ -> Alcotest.fail "expected overflow");
  (* two copies: copy 1 holds a tile, copy 2 is out of range *)
  check Alcotest.int "copy 1" 32 (Array.length (Spm.tile x ~copy:1));
  Alcotest.check_raises "copy 2"
    (Failure "Spm: copy 2 out of range for x (2 copies)")
    (fun () -> ignore (Spm.tile x ~copy:2))

let test_spm_race_detection () =
  let spm = Spm.create ~capacity_bytes:4096 ~functional:false in
  let buf = Spm.alloc spm "buf" ~rows:4 ~cols:4 ~copies:2 in
  (* read [1, 2); overlapping write [1.5, 2.5) on the same copy: race *)
  Spm.note_read buf ~copy:0 ~start:1.0 ~finish:2.0;
  Spm.note_write buf ~copy:0 ~start:1.5 ~finish:2.5;
  check Alcotest.int "one race" 1 (List.length (Spm.races spm));
  (* same interval on the other copy: no race (double buffering works) *)
  Spm.note_write buf ~copy:1 ~start:1.5 ~finish:2.5;
  check Alcotest.int "still one race" 1 (List.length (Spm.races spm));
  (* disjoint windows: no race *)
  Spm.note_read buf ~copy:1 ~start:3.0 ~finish:4.0;
  check Alcotest.int "no new race" 1 (List.length (Spm.races spm))

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let verdict c =
    Result.map_error Config.error_to_string (Config.validate c)
  in
  (match verdict Config.sw26010pro with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* rectangular meshes are a valid machine model *)
  (match verdict { Config.sw26010pro with Config.mesh_cols = 4 } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rectangular mesh rejected: %s" e);
  (match verdict { Config.sw26010pro with Config.mesh_rows = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero-row mesh accepted");
  (match
     Config.validate { Config.sw26010pro with Config.mpe_freq_hz = 0. }
   with
  | Error (Config.Non_positive_rate ("mpe.freq_hz", 0.)) -> ()
  | Error e ->
      Alcotest.failf "MPE frequency 0: wrong error %s"
        (Config.error_to_string e)
  | Ok () -> Alcotest.fail "zero MPE frequency accepted");
  match verdict { Config.sw26010pro with Config.spm_bytes = 1024 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "SPM overflow accepted"

let test_config_peak () =
  Helpers.check_close ~tol:1e-6 "SW26010Pro peak" 2273.28
    (Config.peak_gflops Config.sw26010pro);
  let t = Config.micro_kernel_seconds Config.sw26010pro ~style:`Asm ~m:64 ~n:64 ~k:32 in
  Alcotest.(check bool) "kernel time in the microsecond range" true
    (t > 5.0e-6 && t < 12.0e-6);
  let tn = Config.micro_kernel_seconds Config.sw26010pro ~style:`Naive ~m:64 ~n:64 ~k:32 in
  Alcotest.(check bool) "naive much slower" true (tn > 10.0 *. t)

(* ------------------------------------------------------------------ *)
(* Cluster + Interp on a hand-built program                             *)
(* ------------------------------------------------------------------ *)

open Sw_poly
open Sw_tree

(* A 1x1-mesh program: get a 4x4 tile of A and 4x4 of B, run the kernel,
   put the result back into C. *)
let mini_program ~alpha =
  let dma ~array ~buf ~reply =
    Comm.Dma_get
      {
        Comm.array;
        spm = Comm.buf buf;
        batch = None;
        row_lo = Aff.const 0;
        col_lo = Aff.const 0;
        rows = 4;
        cols = 4;
        reply;
        reply_parity = None;
      }
  in
  let wait reply = Comm.Wait { reply; reply_parity = None } in
  {
    Sw_ast.Ast.prog_name = "mini";
    params = [ ("M", 4); ("N", 4); ("K", 4) ];
    arrays =
      [
        { Sw_ast.Ast.array_name = "A"; dims = [ 4; 4 ] };
        { Sw_ast.Ast.array_name = "B"; dims = [ 4; 4 ] };
        { Sw_ast.Ast.array_name = "C"; dims = [ 4; 4 ] };
      ];
    spm_decls =
      [
        { Sw_ast.Ast.buf_name = "ldm_A"; rows = 4; cols = 4; copies = 1 };
        { Sw_ast.Ast.buf_name = "ldm_B"; rows = 4; cols = 4; copies = 1 };
        { Sw_ast.Ast.buf_name = "ldm_C"; rows = 4; cols = 4; copies = 1 };
      ];
    replies = [ "rA"; "rB"; "rC" ];
    body =
      [
        Sw_ast.Ast.Op (dma ~array:"A" ~buf:"ldm_A" ~reply:"rA");
        Sw_ast.Ast.Op (dma ~array:"B" ~buf:"ldm_B" ~reply:"rB");
        Sw_ast.Ast.Op (wait "rA");
        Sw_ast.Ast.Op (wait "rB");
        Sw_ast.Ast.Op
          (Comm.Kernel
             {
               Comm.c = Comm.buf "ldm_C";
               a = Comm.buf "ldm_A";
               b = Comm.buf "ldm_B";
               m = 4;
               n = 4;
               k = 4;
               alpha;
               accumulate = false;
               ta = false;
               tb = false;
               style = Comm.Asm;
             });
        Sw_ast.Ast.Op
          (Comm.Dma_put
             {
               Comm.array = "C";
               spm = Comm.buf "ldm_C";
               batch = None;
               row_lo = Aff.const 0;
               col_lo = Aff.const 0;
               rows = 4;
               cols = 4;
               reply = "rC";
               reply_parity = None;
             });
        Sw_ast.Ast.Op (wait "rC");
      ];
  }

(* A run that must complete race-free; any typed failure fails the test. *)
let run_ok ?user ~config ~mem prog =
  match Interp.run ~config ~mem ?user prog with
  | Ok r -> r
  | Error e -> Alcotest.failf "expected a clean run: %s" (Error.to_string e)

(* Allocate a 4x4 array in a functional memory with element (r, c) = f r c. *)
let alloc_4x4 mem name f =
  Mem.alloc mem name ~dims:[ 4; 4 ];
  Array.blit (Array.init 16 (fun i -> f (i / 4) (i mod 4))) 0
    (Mem.data mem name) 0 16

let test_interp_mini_gemm () =
  let mem = Mem.create ~functional:true in
  alloc_4x4 mem "A" (fun r c -> float_of_int ((r * 4) + c));
  alloc_4x4 mem "B" (fun r c -> if r = c then 1.0 else 0.0);
  Mem.alloc mem "C" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  let r = run_ok ~config ~mem (mini_program ~alpha:3.0) in
  Alcotest.(check bool) "took some time" true (r.Interp.seconds > 0.0);
  (* C = 3 * A * I = 3A *)
  let c = Mem.data mem "C" in
  Helpers.check_array_close "C = 3A"
    (Array.init 16 (fun i -> 3.0 *. float_of_int i))
    c

let test_interp_timing_only () =
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  let mem_of ~functional ~a_rows =
    let mem = Mem.create ~functional in
    Mem.alloc mem "A" ~dims:[ a_rows; 4 ];
    List.iter (fun name -> Mem.alloc mem name ~dims:[ 4; 4 ]) [ "B"; "C" ];
    mem
  in
  let prog = mini_program ~alpha:1.0 in
  let fr = run_ok ~config ~mem:(mem_of ~functional:true ~a_rows:4) prog in
  let mem = mem_of ~functional:false ~a_rows:4 in
  let tr = run_ok ~config ~mem prog in
  Helpers.check_close "timing independent of data mode" fr.Interp.seconds
    tr.Interp.seconds;
  (match Mem.data mem "C" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "timing memory holds no data");
  (* both modes check every DMA against the array's extents *)
  List.iter
    (fun functional ->
      match Interp.run ~config ~mem:(mem_of ~functional ~a_rows:2) prog with
      | Error (Error.Bounds b) ->
          check Alcotest.string "array named" "A" b.array_name
      | _ ->
          Alcotest.failf "out-of-bounds DMA accepted (functional = %b)"
            functional)
    [ true; false ]

let test_interp_race_detected () =
  (* Deliberately broken double buffering: kernel reads ldm_A while a
     second DMA overwrites it without waiting. *)
  let base = mini_program ~alpha:1.0 in
  let dma_again =
    Sw_ast.Ast.Op
      (Comm.Dma_get
         {
           Comm.array = "A";
           spm = Comm.buf "ldm_A";
           batch = None;
           row_lo = Aff.const 0;
           col_lo = Aff.const 0;
           rows = 4;
           cols = 4;
           reply = "rA";
           reply_parity = None;
         })
  in
  let body =
    match base.Sw_ast.Ast.body with
    | [ a; b; wa; wb; kern; put; wput ] ->
        (* re-issue the A fetch right before the kernel, wait only after *)
        [ a; b; wa; wb; dma_again; kern; Sw_ast.Ast.Op (Comm.Wait { reply = "rA"; reply_parity = None }); put; wput ]
    | _ -> Alcotest.fail "unexpected body"
  in
  let prog = { base with Sw_ast.Ast.body } in
  let mem = Mem.create ~functional:true in
  Mem.alloc mem "A" ~dims:[ 4; 4 ];
  Mem.alloc mem "B" ~dims:[ 4; 4 ];
  Mem.alloc mem "C" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  match Interp.run ~config ~mem prog with
  | Error (Error.Race (_ :: _)) -> ()
  | _ -> Alcotest.fail "race not detected"

let test_interp_spm_overflow () =
  let base = mini_program ~alpha:1.0 in
  let prog =
    {
      base with
      Sw_ast.Ast.spm_decls =
        [ { Sw_ast.Ast.buf_name = "huge"; rows = 1024; cols = 1024; copies = 2 } ];
    }
  in
  let mem = Mem.create ~functional:true in
  Mem.alloc mem "A" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  match Interp.run ~config ~mem prog with
  | Error (Error.Overflow _) -> ()
  | _ -> Alcotest.fail "expected SPM overflow error"

let test_rma_broadcast_functional () =
  (* 2x2 mesh: CPE in column 0 of each row broadcasts its tile; all CPEs
     must receive the sender's data. Verified via a program that stores
     each CPE's received tile to a distinct region of C. *)
  let open Sw_ast in
  let config = Config.tiny ~mesh:2 ~mk:(2, 2, 2) () in
  let mem = Mem.create ~functional:true in
  (* A's rows 0..1 belong to mesh row 0, rows 2..3 to mesh row 1; each CPE
     loads its own 2x2 tile of A, then row-broadcast from column 0. *)
  alloc_4x4 mem "A" (fun r c -> float_of_int ((10 * r) + c));
  Mem.alloc mem "C" ~dims:[ 4; 4 ];
  let aff_i = Aff.mul 2 (Aff.param "Rid") in
  let aff_j = Aff.mul 2 (Aff.param "Cid") in
  let prog =
    {
      Ast.prog_name = "bcast";
      params = [];
      arrays =
        [
          { Ast.array_name = "A"; dims = [ 4; 4 ] };
          { Ast.array_name = "C"; dims = [ 4; 4 ] };
        ];
      spm_decls =
        [
          { Ast.buf_name = "own"; rows = 2; cols = 2; copies = 1 };
          { Ast.buf_name = "recv"; rows = 2; cols = 2; copies = 1 };
        ];
      replies = [ "rA"; "rs"; "rr"; "rC" ];
      body =
        [
          Ast.Op
            (Comm.Dma_get
               {
                 Comm.array = "A";
                 spm = Comm.buf "own";
                 batch = None;
                 row_lo = aff_i;
                 col_lo = aff_j;
                 rows = 2;
                 cols = 2;
                 reply = "rA";
                 reply_parity = None;
               });
          Ast.Op (Comm.Wait { reply = "rA"; reply_parity = None });
          Ast.Op Comm.Sync;
          Ast.Op
            (Comm.Rma_bcast
               {
                 Comm.dir = `Row;
                 src = Comm.buf "own";
                 dst = Comm.buf "recv";
                 rows = 2;
                 cols = 2;
                 root = Aff.const 0;
                 reply_s = "rs";
                 reply_r = "rr";
                 reply_parity = None;
               });
          Ast.Op (Comm.Wait { reply = "rs"; reply_parity = None });
          Ast.Op (Comm.Wait { reply = "rr"; reply_parity = None });
          Ast.Op
            (Comm.Dma_put
               {
                 Comm.array = "C";
                 spm = Comm.buf "recv";
                 batch = None;
                 row_lo = aff_i;
                 col_lo = aff_j;
                 rows = 2;
                 cols = 2;
                 reply = "rC";
                 reply_parity = None;
               });
          Ast.Op (Comm.Wait { reply = "rC"; reply_parity = None });
        ];
    }
  in
  ignore (run_ok ~config ~mem prog);
  (* every CPE's quadrant of C holds the column-0 tile of its mesh row *)
  let c = Mem.data mem "C" in
  let a = Mem.data mem "A" in
  for rid = 0 to 1 do
    for cid = 0 to 1 do
      for i = 0 to 1 do
        for j = 0 to 1 do
          let crow = (2 * rid) + i and ccol = (2 * cid) + j in
          let arow = (2 * rid) + i and acol = j in
          Helpers.check_close
            (Printf.sprintf "C[%d][%d]" crow ccol)
            a.((arow * 4) + acol)
            c.((crow * 4) + ccol)
        done
      done
    done
  done

let test_gflops_helper () =
  Helpers.check_close "gflops" 2.0 (Interp.gflops ~flops:2_000_000_000 ~seconds:1.0)

let tests =
  [
    ("engine clock and ordering", `Quick, test_engine_clock);
    ("deterministic ties", `Quick, test_engine_deterministic_ties);
    ("counter wakeup", `Quick, test_counter_wakeup);
    ("deadlock detection", `Quick, test_deadlock_detection);
    ("deadlock diagnosis shape", `Quick, test_deadlock_diagnosis_shape);
    ("deadlock names unlabeled fibers by id", `Quick, test_deadlock_default_labels);
    ("barrier rounds", `Quick, test_barrier);
    ("channel serialization", `Quick, test_channel_serialization);
    ("mem offsets and init", `Quick, test_mem_offsets);
    ("spm capacity", `Quick, test_spm_capacity);
    ("spm race detection", `Quick, test_spm_race_detection);
    ("config validation", `Quick, test_config_validation);
    ("config peak and kernel time", `Quick, test_config_peak);
    ("interp mini GEMM", `Quick, test_interp_mini_gemm);
    ("interp timing-only mode", `Quick, test_interp_timing_only);
    ("interp detects broken double buffering", `Quick, test_interp_race_detected);
    ("interp SPM overflow", `Quick, test_interp_spm_overflow);
    ("RMA broadcast functional", `Quick, test_rma_broadcast_functional);
    ("gflops helper", `Quick, test_gflops_helper);
    prop_channel_throughput;
  ]

(* ------------------------------------------------------------------ *)
(* Engine edge cases and failure injection                             *)
(* ------------------------------------------------------------------ *)

let test_schedule_into_past () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  ignore (run_scripts eng [ [ (fun f -> Engine.delay eng f 1.0) ] ]);
  match Engine.incr_after eng c ~after:(-2.0) with
  | exception Error.Sim_error (Error.Invalid _) -> ()
  | _ -> Alcotest.fail "negative scheduling accepted"

let test_counter_reset_with_waiters () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  ignore
    (run_scripts eng
       [
         [ (fun f -> Engine.await eng f c 1) ];
         [
           (fun f -> Engine.delay eng f 1.0);
           now_do (fun () ->
               (match Engine.counter_reset c with
               | exception Error.Sim_error (Error.Invalid _) -> ()
               | _ -> Alcotest.fail "reset with waiters accepted");
               Engine.counter_incr c);
         ];
       ])

let test_barrier_mismatch_deadlocks () =
  (* only 2 of 3 parties arrive: the run must report a deadlock instead of
     silently dropping the waiters *)
  let eng = Engine.create () in
  let b = Engine.new_barrier eng ~parties:3 in
  let arrive = [ (fun f -> Engine.barrier_wait eng f b) ] in
  match run_scripts eng [ arrive; arrive ] with
  | exception Error.Sim_error (Error.Deadlock d) ->
      check Alcotest.int "both waiters reported" 2
        (List.length d.Error.fibers)
  | _ -> Alcotest.fail "expected deadlock"

let test_zero_byte_transfer () =
  let eng = Engine.create () in
  let ch = Engine.new_channel ~bw_bytes_per_s:100.0 ~latency_s:0.25 in
  let at = ref nan in
  ignore
    (run_scripts eng
       [ [ now_do (fun () -> Engine.transfer eng ch ~bytes:0 ~event:0) ] ]
       ~event:(fun _ -> at := Engine.now eng));
  Helpers.check_close "latency only" 0.25 !at

let test_many_fibers_scale () =
  (* thousands of fibers interleaving on counters: exercises the heap *)
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let n = 2000 in
  let done_count = ref 0 in
  ignore
    (run_scripts eng
       (List.init n (fun i ->
            let i = i + 1 in
            [
              (fun f -> Engine.delay eng f (float_of_int (n - i) *. 1e-6));
              now_do (fun () -> Engine.counter_incr c);
              (fun f -> Engine.await eng f c n);
              now_do (fun () -> incr done_count);
            ])));
  check Alcotest.int "all fibers completed" n !done_count

(* A fiber that waits on [c] with a deadline and records whether the
   counter got there first. *)
let deadline_waiter eng c ~timeout outcome =
  [
    (fun f -> Engine.await ~timeout eng f c 1);
    (fun f ->
      outcome := Some (not (Engine.timed_out eng f));
      false);
  ]

let test_await_deadline_timeout () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let outcome = ref None in
  let finish = run_scripts eng [ deadline_waiter eng c ~timeout:2.0 outcome ] in
  check Alcotest.(option bool) "timed out" (Some false) !outcome;
  Helpers.check_close "gave up at the deadline" 2.0 finish

let test_await_deadline_satisfied () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let outcome = ref None in
  ignore
    (run_scripts eng
       [
         deadline_waiter eng c ~timeout:5.0 outcome;
         [ (fun f -> Engine.delay eng f 1.0); now_do (fun () -> Engine.counter_incr c) ];
       ]);
  check Alcotest.(option bool) "woken before deadline" (Some true) !outcome;
  (* the stale timeout event must not resume the fiber twice: a second
     run to the drained queue succeeds *)
  Engine.counter_incr c

(* A fiber that delays itself again each time it resumes would run
   forever without a budget. *)
let run_forever eng =
  ignore (Engine.spawn eng);
  Engine.run eng ~resume:(fun f -> ignore (Engine.delay eng f 1.0)) ~event:ignore

let test_watchdog_events () =
  let eng = Engine.create () in
  Engine.set_watchdog eng { Engine.no_watchdog with Engine.max_events = Some 10 };
  match run_forever eng with
  | exception Error.Sim_error (Error.Watchdog w) -> (
      match w.limit with
      | `Events 10 -> ()
      | _ -> Alcotest.fail "wrong limit reported")
  | _ -> Alcotest.fail "expected watchdog trip"

let test_watchdog_sim_time () =
  let eng = Engine.create () in
  Engine.set_watchdog eng { Engine.no_watchdog with Engine.max_sim_s = Some 5.0 };
  match run_forever eng with
  | exception Error.Sim_error (Error.Watchdog w) ->
      Alcotest.(check bool) "tripped past the budget" true
        (w.sim_time > 5.0)
  | _ -> Alcotest.fail "expected watchdog trip"

let prop_engine_determinism =
  qtest ~count:20 "simulations are exactly reproducible"
    (QCheck.int_range 0 1000)
    (fun seed ->
      let run () =
        let eng = Engine.create () in
        let rng = Random.State.make [| seed |] in
        let c = Engine.new_counter eng in
        let log = ref [] in
        ignore
          (run_scripts eng
             (List.init 21 (fun i ->
                  let d = Random.State.float rng 1.0 in
                  [
                    (fun f -> Engine.delay eng f d);
                    now_do (fun () -> Engine.counter_incr c);
                    (fun f -> Engine.await eng f c 10);
                    now_do (fun () -> log := (i, Engine.now eng) :: !log);
                  ])));
        !log
      in
      run () = run ())

(* The engine against a list-based reference model of its (time, seq)
   order. Scripted fibers make ties on purpose: delays of 0, d, 2d or 3d,
   which arrive both in time order (to the engine's lane) and out of it
   (to its heap), and counter awaits, increments, a barrier and zero-byte
   transfers on a zero-latency channel, all of which wake someone at the
   current instant (its ring). Posts occupy a second channel, whose
   bandwidth and latency put their completions on quarter-d steps between
   the delays. A transfer's completion increments a counter. *)
type op =
  | Delay of float
  | Incr of int
  | Await of int * int
  | Barrier
  | Send
  | Post of int  (** bytes on the channel with latency *)

(* A run is its resumes and client events in the order they ran, and
   whether it ended with fibers still parked. *)
type ran = Resumed of int * float | Completed of int * float

let post_bw = 4.0 and post_latency = 0.125

let model_order ~ncounters ~parties scripts =
  let now = ref 0.0 and seq = ref 0 and queue = ref [] and log = ref [] in
  let busy_until = ref 0.0 in
  (* the barrier is counter [ncounters] *)
  let values = Array.make (ncounters + 1) 0 in
  let waiters = Array.make (ncounters + 1) [] (* park order: (fiber, target) *) in
  let push at ev =
    incr seq;
    queue := (at, !seq, ev) :: !queue
  in
  let incr_counter c =
    values.(c) <- values.(c) + 1;
    let woken, kept = List.partition (fun (_, n) -> values.(c) >= n) waiters.(c) in
    List.iter (fun (f, _) -> push !now (`Resume f)) (List.rev woken);
    waiters.(c) <- kept
  in
  let left = Array.of_list scripts in
  (* run fiber [f] until it suspends or ends *)
  let rec step f =
    match left.(f) with
    | [] -> ()
    | op :: rest -> (
        left.(f) <- rest;
        let await c n =
          if values.(c) >= n then step f else waiters.(c) <- waiters.(c) @ [ (f, n) ]
        in
        match op with
        | Delay d -> if d > 0.0 then push (!now +. d) (`Resume f) else step f
        | Incr c ->
            incr_counter c;
            step f
        | Await (c, n) -> await c n
        | Barrier ->
            let round = (values.(ncounters) / parties) + 1 in
            incr_counter ncounters;
            await ncounters (round * parties)
        | Send ->
            push !now (`Complete f);
            step f
        | Post bytes ->
            let start = if !now >= !busy_until then !now else !busy_until in
            busy_until := start +. (float_of_int bytes /. post_bw);
            push (!busy_until +. post_latency) (`Complete f);
            step f)
  in
  List.iteri (fun f _ -> push 0.0 (`Resume f)) scripts;
  while !queue <> [] do
    let at, sq, ev =
      List.fold_left
        (fun ((a, s, _) as best) ((a', s', _) as e) ->
          if a' < a || (a' = a && s' < s) then e else best)
        (List.hd !queue) !queue
    in
    queue := List.filter (fun (_, s, _) -> s <> sq) !queue;
    now := at;
    match ev with
    | `Resume f ->
        log := Resumed (f, at) :: !log;
        step f
    | `Complete f ->
        log := Completed (f, at) :: !log;
        incr_counter (f mod ncounters)
  done;
  (List.rev !log, Array.exists (fun w -> w <> []) waiters)

(* The engine's run, and how many events its ring, lane and heap served,
   read from the metrics it keeps when a registry is installed. *)
let engine_order ~ncounters ~parties scripts =
  let registry = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install registry;
  Fun.protect ~finally:Sw_obs.Metrics.uninstall @@ fun () ->
  let eng = Engine.create () in
  let counters = Array.init ncounters (fun _ -> Engine.new_counter eng) in
  let b = Engine.new_barrier eng ~parties in
  let ch = Engine.new_channel ~bw_bytes_per_s:1e9 ~latency_s:0.0 in
  let post = Engine.new_channel ~bw_bytes_per_s:post_bw ~latency_s:post_latency in
  let log = ref [] in
  let steps =
    List.map
      (List.map (function
        | Delay d -> fun f -> Engine.delay eng f d
        | Incr c -> now_do (fun () -> Engine.counter_incr counters.(c))
        | Await (c, n) -> fun f -> Engine.await eng f counters.(c) n
        | Barrier -> fun f -> Engine.barrier_wait eng f b
        | Send -> fun f -> Engine.transfer eng ch ~bytes:0 ~event:f; false
        | Post bytes -> fun f -> Engine.transfer eng post ~bytes ~event:f; false))
      scripts
  in
  List.iter (fun _ -> ignore (Engine.spawn eng)) scripts;
  let scripted = Helpers.scripted (Array.of_list steps) in
  let resume f =
    log := Resumed (f, Engine.now eng) :: !log;
    scripted f
  and event f =
    log := Completed (f, Engine.now eng) :: !log;
    Engine.counter_incr counters.(f mod ncounters)
  in
  let deadlocked =
    match Engine.run eng ~resume ~event with
    | _ -> false
    | exception Error.Sim_error (Error.Deadlock _) -> true
  in
  let served queue =
    match
      Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot registry)
        ~labels:[ ("queue", queue) ] "sim.queue_events_total"
    with
    | Some (Sw_obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  ((List.rev !log, deadlocked), List.map served [ "ring"; "lane"; "heap" ])

(* Every case starts with fiber 0 delaying 2d, which the lane takes, and
   fiber 1 delaying d, which is due before the lane's tail and so goes to
   the heap; the spawns are due now, in the ring. *)
let prop_engine_order_matches_model =
  qtest ~count:300 "engine order equals the (time, seq) reference model"
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nfibers = 2 + Random.State.int rng 5 and ncounters = 2 in
      let d = 0.5 in
      let op () =
        match Random.State.int rng 7 with
        | 0 -> Delay (float_of_int (Random.State.int rng 4) *. d)
        | 1 -> Incr (Random.State.int rng ncounters)
        | 2 -> Await (Random.State.int rng ncounters, 1 + Random.State.int rng 4)
        | 3 -> Barrier
        | 4 -> Send
        | _ -> Post (Random.State.int rng 4)
      in
      let scripts =
        List.init nfibers (fun f ->
            let prefix = match f with 0 -> [ Delay (2.0 *. d) ] | 1 -> [ Delay d ] | _ -> [] in
            prefix @ List.init (1 + Random.State.int rng 10) (fun _ -> op ()))
      in
      let parties = 1 + Random.State.int rng nfibers in
      let ran, served = engine_order ~ncounters ~parties scripts in
      ran = model_order ~ncounters ~parties scripts
      && List.for_all (fun n -> n > 0) served)

let engine_edge_tests =
  [
    ("schedule into the past", `Quick, test_schedule_into_past);
    ("counter reset with waiters", `Quick, test_counter_reset_with_waiters);
    ("barrier mismatch deadlocks", `Quick, test_barrier_mismatch_deadlocks);
    ("zero-byte transfer", `Quick, test_zero_byte_transfer);
    ("await_deadline times out", `Quick, test_await_deadline_timeout);
    ("await_deadline satisfied", `Quick, test_await_deadline_satisfied);
    ("watchdog event budget", `Quick, test_watchdog_events);
    ("watchdog simulated-time budget", `Quick, test_watchdog_sim_time);
    ("thousands of fibers", `Quick, test_many_fibers_scale);
    prop_engine_determinism;
    prop_engine_order_matches_model;
  ]

let tests = tests @ engine_edge_tests

(* ------------------------------------------------------------------ *)
(* Interp user-statement callback                                       *)
(* ------------------------------------------------------------------ *)

let test_interp_user_callback () =
  (* a program of bare User statements: each CPE reports its instances *)
  let open Sw_ast in
  let prog =
    {
      Ast.prog_name = "users";
      params = [ ("N", 3) ];
      arrays = [];
      spm_decls = [];
      replies = [];
      body =
        [
          Ast.For
            {
              var = "i";
              lbs = [ Sw_poly.Aff.const 0 ];
              ubs = [ Sw_poly.Aff.sub (Sw_poly.Aff.param "N") (Sw_poly.Aff.const 1) ];
              body =
                [
                  Ast.User
                    {
                      name = "S";
                      args = [ ("i", Sw_poly.Aff.var "i"); ("r", Sw_poly.Aff.param "Rid") ];
                    };
                ];
            };
        ];
    }
  in
  let seen = ref [] in
  let user ~rid ~cid name args = seen := (rid, cid, name, args) :: !seen in
  let mem = Mem.create ~functional:true in
  let config = Config.tiny ~mesh:2 ~mk:(2, 2, 2) () in
  ignore (run_ok ~config ~mem ~user prog);
  check Alcotest.int "4 CPEs x 3 iterations" 12 (List.length !seen);
  (* Rid parameter resolves per CPE *)
  Alcotest.(check bool) "rid passed through" true
    (List.for_all (fun (rid, _, _, args) -> List.assoc "r" args = rid) !seen)

let test_interp_user_missing_callback () =
  let open Sw_ast in
  let prog =
    {
      Ast.prog_name = "users2";
      params = [];
      arrays = [];
      spm_decls = [];
      replies = [];
      body = [ Ast.User { name = "S"; args = [] } ];
    }
  in
  let mem = Mem.create ~functional:true in
  let config = Config.tiny ~mesh:1 ~mk:(2, 2, 2) () in
  match Interp.run ~config ~mem prog with
  | Error (Error.Invalid msg) ->
      check Alcotest.string "message" "User statement S but no user callback"
        msg
  | _ -> Alcotest.fail "missing user callback accepted"

(* A name the program cannot resolve fails the op that uses it, with the
   text a lookup by name gives, when that op executes; an op that never
   executes never fails. *)
let test_interp_unresolved_names () =
  let open Sw_ast in
  let dma ?(array = "A") ?(buf = "ldm") ?(reply = "rA") ?(row = Aff.const 0) () =
    Ast.Op
      (Comm.Dma_get
         {
           Comm.array;
           spm = Comm.buf buf;
           batch = None;
           row_lo = row;
           col_lo = Aff.const 0;
           rows = 2;
           cols = 2;
           reply;
           reply_parity = None;
         })
  in
  let bad =
    [
      ("unbound loop variable", dma ~row:(Aff.var "zz") (), "unbound loop variable zz");
      ("unknown parameter", dma ~row:(Aff.param "Q") (), "unknown parameter Q");
      ("unknown reply", dma ~reply:"rZ" (), "Cluster: unknown reply counter rZ");
      ( "unknown wait",
        Ast.Op (Comm.Wait { reply = "rZ"; reply_parity = None }),
        "Cluster: unknown reply counter rZ" );
      ("unknown buffer", dma ~buf:"nope" (), "Spm: unknown buffer nope");
      ("unknown array", dma ~array:"Z" (), "Mem: unknown array Z");
    ]
  in
  let ldm = { Ast.buf_name = "ldm"; rows = 2; cols = 2; copies = 1 } in
  let run ?(spm_decls = [ ldm ]) body =
    let mem = Mem.create ~functional:false in
    Mem.alloc mem "A" ~dims:[ 4; 4 ];
    Interp.run ~config:(Config.tiny ~mesh:2 ~mk:(2, 2, 2) ()) ~mem
      {
        Ast.prog_name = "unresolved";
        params = [ ("N", 4) ];
        arrays = [ { Ast.array_name = "A"; dims = [ 4; 4 ] } ];
        spm_decls;
        replies = [ "rA" ];
        body;
      }
  in
  let expect_invalid what expected = function
    | Error (Error.Invalid msg) -> check Alcotest.string what expected msg
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  List.iter (fun (what, op, expected) -> expect_invalid what expected (run [ op ])) bad;
  (* malformed SPM declarations fail the run before any op executes *)
  expect_invalid "duplicate SPM buffer" "Spm.alloc: duplicate buffer ldm"
    (run ~spm_decls:[ ldm; ldm ] []);
  expect_invalid "empty SPM buffer" "Spm.alloc: empty buffer ldm"
    (run ~spm_decls:[ { ldm with Ast.rows = 0 } ] []);
  let never =
    Ast.If
      {
        conds = [ Pred.eq (Aff.param "Rid") (Aff.const 7) ];
        body = List.map (fun (_, op, _) -> op) bad @ [ Ast.User { name = "S"; args = [] } ];
      }
  in
  match run [ never ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ops that never run failed: %s" (Error.to_string e)

let user_tests =
  [
    ("interp user callback", `Quick, test_interp_user_callback);
    ("interp user without callback", `Quick, test_interp_user_missing_callback);
    ("interp unresolved names fail when executed", `Quick, test_interp_unresolved_names);
  ]

let tests = tests @ user_tests

(* ------------------------------------------------------------------ *)
(* Config presets, typed validation, strict JSON round-trip             *)
(* ------------------------------------------------------------------ *)

let test_config_presets () =
  List.iter
    (fun (c : Config.t) ->
      (match Config.validate c with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "preset %s invalid: %s" c.Config.name
            (Config.error_to_string e));
      match Config.find c.Config.name with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.failf "find %s does not return the preset" c.Config.name)
    Config.all;
  (* legacy spellings resolve to the canonical presets *)
  List.iter
    (fun (alias, canonical) ->
      match Config.find alias with
      | Some c -> check Alcotest.string alias canonical c.Config.name
      | None -> Alcotest.failf "alias %s unresolved" alias)
    [ ("tiny-2x2", "tiny2"); ("tiny-4x4", "tiny4") ];
  let c =
    match Config.find "sw26010pro-8x4" with
    | Some c -> c
    | None -> Alcotest.fail "sw26010pro-8x4 missing"
  in
  check Alcotest.int "8 rows" 8 c.Config.mesh_rows;
  check Alcotest.int "4 cols" 4 c.Config.mesh_cols

let arch_presets_array = Array.of_list Config.all

let pick_preset st =
  arch_presets_array.(Random.State.int st (Array.length arch_presets_array))

let arch_json_roundtrip =
  qtest ~count:30 "Config JSON round-trips through the strict parser"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x41524348 |] in
      let p = pick_preset st in
      (* a preset with a redrawn NoC and MPE, so every block is exercised
         beyond the calibrated constants *)
      let c =
        {
          p with
          Config.noc_link_bw_bytes_per_s = Random.State.float st 1e11;
          noc_src_bw_bytes_per_s = Random.State.float st 1e11;
          noc_latency_s = Random.State.float st 1e-5;
          mpe_freq_hz = Random.State.float st 4e9;
        }
      in
      match Sw_obs.Json.parse (Sw_obs.Json.to_string (Config.to_json c)) with
      | Error e -> QCheck.Test.fail_reportf "reparse: %s" e
      | Ok j -> (
          match Config.of_json j with
          | Error e -> QCheck.Test.fail_reportf "of_json: %s" e
          | Ok c' ->
              c' = c
              || QCheck.Test.fail_reportf "round-trip changed %s"
                   c.Config.name))

let arch_json_strict =
  qtest ~count:40 "Config parser rejects missing and unknown fields"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x4152534A |] in
      let c = pick_preset st in
      match Config.to_json c with
      | Sw_obs.Json.Obj fields -> (
          let mutated =
            if Random.State.bool st then
              let i = Random.State.int st (List.length fields) in
              Sw_obs.Json.Obj (List.filteri (fun j _ -> j <> i) fields)
            else Sw_obs.Json.Obj (("bogus_field", Sw_obs.Json.Int 1) :: fields)
          in
          match Config.of_json mutated with
          | Error _ -> true
          | Ok _ -> QCheck.Test.fail_reportf "mutated %s accepted" c.Config.name)
      | _ -> QCheck.Test.fail_report "to_json is not an object")

(* Every rate the validator checks, with its field path and a setter. *)
let rate_fields =
  [
    ("cpe.freq_hz", fun c v -> { c with Config.cpe_freq_hz = v });
    ( "cpe.simd_flops_per_cycle",
      fun c v -> { c with Config.cpe_simd_flops_per_cycle = v } );
    ( "cpe.naive_flops_per_cycle",
      fun c v -> { c with Config.cpe_naive_flops_per_cycle = v } );
    ( "cpe.ew_cycles_per_elem",
      fun c v -> { c with Config.ew_cpe_cycles_per_elem = v } );
    ("dma.bw_bytes_per_s", fun c v -> { c with Config.mem_bw_bytes_per_s = v });
    ("rma.bw_bytes_per_s", fun c v -> { c with Config.rma_bw_bytes_per_s = v });
    ("mpe.freq_hz", fun c v -> { c with Config.mpe_freq_hz = v });
    ( "mpe.stream_bw_bytes_per_s",
      fun c v -> { c with Config.mpe_stream_bw_bytes_per_s = v } );
    ( "noc.link_bw_bytes_per_s",
      fun c v -> { c with Config.noc_link_bw_bytes_per_s = v } );
    ( "noc.src_bw_bytes_per_s",
      fun c v -> { c with Config.noc_src_bw_bytes_per_s = v } );
  ]

let arch_typed_errors =
  qtest ~count:50 "malformed descriptions are rejected with typed errors"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x41524345 |] in
      let c = pick_preset st in
      let fail_with got =
        QCheck.Test.fail_reportf "wrong verdict for mutated %s: %s"
          c.Config.name
          (match got with
          | Ok () -> "accepted"
          | Error e -> Config.error_to_string e)
      in
      match Random.State.int st 5 with
      | 0 -> (
          (* zero or negative mesh dimension *)
          let rows = -Random.State.int st 3 in
          match Config.validate { c with Config.mesh_rows = rows } with
          | Error (Config.Empty_mesh m) -> m.rows = rows
          | r -> fail_with r)
      | 1 -> (
          (* any non-positive rate, named by its field path *)
          let path, set =
            List.nth rate_fields (Random.State.int st (List.length rate_fields))
          in
          let v = -.Random.State.float st 10.0 in
          match Config.validate (set c v) with
          | Error (Config.Non_positive_rate (field, v')) -> v' = v && field = path
          | r -> fail_with r)
      | 2 -> (
          (* SPM too small for the nine double-buffered working-set
             buffers of the micro kernel *)
          let needed = Config.spm_needed_bytes c in
          let spm_bytes = Random.State.int st needed in
          match Config.validate { c with Config.spm_bytes } with
          | Error (Config.Spm_overflow { needed_bytes; spm_bytes = sb }) ->
              needed_bytes = needed && sb = spm_bytes
          | r -> fail_with r)
      | 3 -> (
          let efficiency =
            if Random.State.bool st then 1.0 +. Random.State.float st 4.0
            else -.Random.State.float st 1.0
          in
          match
            Config.validate { c with Config.micro_kernel_efficiency = efficiency }
          with
          | Error (Config.Efficiency_out_of_range v) -> v = efficiency
          | r -> fail_with r)
      | _ -> (
          match Config.validate { c with Config.mk_m = 0 } with
          | Error (Config.Empty_micro_kernel _) -> true
          | r -> fail_with r))

let config_tests =
  [
    ("Config presets validate and resolve", `Quick, test_config_presets);
    arch_json_roundtrip;
    arch_json_strict;
    arch_typed_errors;
  ]

let tests = tests @ config_tests
