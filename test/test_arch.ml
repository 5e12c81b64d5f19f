(* Tests for the cluster simulator: engine, memory, SPM, cluster primitives
   and the AST interpreter. *)

open Sw_arch

let check = Alcotest.check
let qtest = Helpers.qtest

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

let test_engine_clock () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.delay 2.0;
      log := ("a", Engine.now eng) :: !log);
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      log := ("b", Engine.now eng) :: !log);
  let finish = Engine.run eng in
  Helpers.check_close "final clock" 2.0 finish;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "order by time" [ ("b", 1.0); ("a", 2.0) ] (List.rev !log)

let test_engine_deterministic_ties () =
  (* Two fibers at the same instant run in spawn order. *)
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () -> log := 1 :: !log);
  Engine.spawn eng (fun () -> log := 2 :: !log);
  ignore (Engine.run eng);
  check Alcotest.(list int) "spawn order" [ 1; 2 ] (List.rev !log)

let test_counter_wakeup () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.await c 1;
      log := ("woken", Engine.now eng) :: !log);
  Engine.spawn eng (fun () ->
      Engine.delay 5.0;
      Engine.counter_incr c);
  ignore (Engine.run eng);
  check
    Alcotest.(list (pair string (float 1e-9)))
    "wake at increment" [ ("woken", 5.0) ] !log

let test_deadlock_detection () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  Engine.spawn eng (fun () -> Engine.await c 1);
  match Engine.run eng with
  | exception Error.Sim_error (Error.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected typed deadlock"

let test_deadlock_diagnosis_shape () =
  (* the quiescence report must name the fiber, the counter, the current vs
     awaited value and the park time of every blocked fiber *)
  let eng = Engine.create () in
  let c = Engine.new_counter ~name:"reply_A[0]" eng in
  Engine.spawn ~label:"CPE(1,2)" eng (fun () ->
      Engine.delay 3.0;
      Engine.await c 2);
  Engine.spawn ~label:"CPE(0,0)" eng (fun () ->
      Engine.counter_incr c;
      Engine.await c 2);
  match Engine.run eng with
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

let test_barrier () =
  let eng = Engine.create () in
  let b = Engine.new_barrier eng ~parties:3 in
  let releases = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        Engine.delay (float_of_int i);
        Engine.barrier_wait b;
        releases := Engine.now eng :: !releases;
        (* second round *)
        Engine.delay 1.0;
        Engine.barrier_wait b;
        releases := Engine.now eng :: !releases)
  done;
  ignore (Engine.run eng);
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
  let ch = Engine.new_channel eng ~bw_bytes_per_s:100.0 ~latency_s:0.5 in
  let done_at = ref [] in
  Engine.spawn eng (fun () ->
      let (_ : float * float) =
        Engine.transfer ch ~bytes:100 ~on_complete:(fun () ->
            done_at := Engine.now eng :: !done_at)
      in
      let (_ : float * float) =
        Engine.transfer ch ~bytes:100 ~on_complete:(fun () ->
            done_at := Engine.now eng :: !done_at)
      in
      ());
  ignore (Engine.run eng);
  check Alcotest.int "both completed" 2 (List.length !done_at);
  let sorted = List.sort compare !done_at in
  Helpers.check_close "first done" 1.5 (List.nth sorted 0);
  Helpers.check_close "second serialized" 2.5 (List.nth sorted 1)

let prop_channel_throughput =
  qtest "n transfers drain in n*bytes/bw seconds"
    QCheck.(pair (int_range 1 20) (int_range 1 1000))
    (fun (n, bytes) ->
      let eng = Engine.create () in
      let ch = Engine.new_channel eng ~bw_bytes_per_s:1000.0 ~latency_s:0.0 in
      let last = ref 0.0 in
      Engine.spawn eng (fun () ->
          for _ = 1 to n do
            let (_ : float * float) =
              Engine.transfer ch ~bytes ~on_complete:(fun () ->
                  last := Engine.now eng)
            in
            ()
          done);
      ignore (Engine.run eng);
      abs_float (!last -. (float_of_int (n * bytes) /. 1000.0)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Mem                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mem_offsets () =
  let mem = Mem.create () in
  Mem.alloc mem "A" ~dims:[ 4; 6 ];
  Mem.alloc_init mem "T" ~dims:[ 2; 3; 4 ] ~f:(fun idx ->
      float_of_int ((100 * idx.(0)) + (10 * idx.(1)) + idx.(2)));
  check Alcotest.int "2-D offset" ((2 * 6) + 3) (Mem.offset mem "A" ~row:2 ~col:3 ());
  check Alcotest.int "3-D offset"
    ((1 * 3 * 4) + (2 * 4) + 1)
    (Mem.offset mem "T" ~batch:1 ~row:2 ~col:1 ());
  Helpers.check_close "init by index" 121.0
    (Mem.data mem "T").(Mem.offset mem "T" ~batch:1 ~row:2 ~col:1 ());
  check Alcotest.int "row_len" 4 (Mem.row_len mem "T");
  (match Mem.offset mem "A" ~row:4 ~col:0 () with
  | exception Error.Sim_error (Error.Bounds b) ->
      check Alcotest.string "array named" "A" b.array_name
  | _ -> Alcotest.fail "bounds check");
  match Mem.offset mem "A" ~batch:0 ~row:0 ~col:0 () with
  | exception Error.Sim_error (Error.Bounds _) -> ()
  | _ -> Alcotest.fail "batch into 2-D"

(* ------------------------------------------------------------------ *)
(* Spm                                                                  *)
(* ------------------------------------------------------------------ *)

let test_spm_capacity () =
  let spm = Spm.create ~capacity_bytes:1024 ~functional:true in
  Spm.alloc spm "x" ~rows:4 ~cols:8 ~copies:2;
  check Alcotest.int "used" (8 * 4 * 8 * 2) (Spm.used_bytes spm);
  (match Spm.alloc spm "y" ~rows:8 ~cols:9 ~copies:1 with
  | exception Error.Sim_error (Error.Overflow o) ->
      check Alcotest.string "buffer named" "y" o.buffer;
      check Alcotest.int "needed bytes" (8 * 8 * 9) o.needed;
      check Alcotest.int "capacity" 1024 o.capacity
  | _ -> Alcotest.fail "expected overflow");
  check Alcotest.int "copies" 2 (Spm.copies spm "x");
  check Alcotest.int "rows" 4 (Spm.tile_rows spm "x")

let test_spm_race_detection () =
  let spm = Spm.create ~capacity_bytes:4096 ~functional:false in
  Spm.alloc spm "buf" ~rows:4 ~cols:4 ~copies:2;
  (* read [1, 2); overlapping write [1.5, 2.5) on the same copy: race *)
  Spm.note_read spm "buf" ~copy:0 ~start:1.0 ~finish:2.0;
  Spm.note_write spm "buf" ~copy:0 ~start:1.5 ~finish:2.5;
  check Alcotest.int "one race" 1 (List.length (Spm.races spm));
  (* same interval on the other copy: no race (double buffering works) *)
  Spm.note_write spm "buf" ~copy:1 ~start:1.5 ~finish:2.5;
  check Alcotest.int "still one race" 1 (List.length (Spm.races spm));
  (* disjoint windows: no race *)
  Spm.note_read spm "buf" ~copy:1 ~start:3.0 ~finish:4.0;
  check Alcotest.int "no new race" 1 (List.length (Spm.races spm))

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  (match Config.validate Config.sw26010pro with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* rectangular meshes are a valid machine model *)
  (match Config.validate { Config.sw26010pro with Config.mesh_cols = 4 } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rectangular mesh rejected: %s" e);
  (match Config.validate { Config.sw26010pro with Config.mesh_rows = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero-row mesh accepted");
  match
    Config.validate { Config.sw26010pro with Config.spm_bytes = 1024 }
  with
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
let run_ok ?user ?(functional = true) ~config ~mem prog =
  match Interp.run ~config ~functional ~mem ?user prog with
  | Ok r -> r
  | Error e -> Alcotest.failf "expected a clean run: %s" (Error.to_string e)

let test_interp_mini_gemm () =
  let mem = Mem.create () in
  Mem.alloc_init mem "A" ~dims:[ 4; 4 ] ~f:(fun idx ->
      float_of_int ((idx.(0) * 4) + idx.(1)));
  Mem.alloc_init mem "B" ~dims:[ 4; 4 ] ~f:(fun idx ->
      if idx.(0) = idx.(1) then 1.0 else 0.0);
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
  let mem = Mem.create () in
  Mem.alloc mem "A" ~dims:[ 4; 4 ];
  Mem.alloc mem "B" ~dims:[ 4; 4 ];
  Mem.alloc mem "C" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  let fr = run_ok ~config ~mem (mini_program ~alpha:1.0) in
  let mem2 = Mem.create () in
  Mem.alloc mem2 "A" ~dims:[ 4; 4 ];
  Mem.alloc mem2 "B" ~dims:[ 4; 4 ];
  Mem.alloc mem2 "C" ~dims:[ 4; 4 ];
  let tr = run_ok ~functional:false ~config ~mem:mem2 (mini_program ~alpha:1.0) in
  Helpers.check_close "timing independent of data mode" fr.Interp.seconds
    tr.Interp.seconds;
  (* timing-only must not touch memory *)
  Alcotest.(check bool) "C untouched" true
    (Array.for_all (fun x -> x = 0.0) (Mem.data mem2 "C"))

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
  let mem = Mem.create () in
  Mem.alloc mem "A" ~dims:[ 4; 4 ];
  Mem.alloc mem "B" ~dims:[ 4; 4 ];
  Mem.alloc mem "C" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  match Interp.run ~config ~functional:true ~mem prog with
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
  let mem = Mem.create () in
  Mem.alloc mem "A" ~dims:[ 4; 4 ];
  let config = Config.tiny ~mesh:1 ~mk:(4, 4, 4) () in
  match Interp.run ~config ~functional:true ~mem prog with
  | Error (Error.Overflow _) -> ()
  | _ -> Alcotest.fail "expected SPM overflow error"

let test_rma_broadcast_functional () =
  (* 2x2 mesh: CPE in column 0 of each row broadcasts its tile; all CPEs
     must receive the sender's data. Verified via a program that stores
     each CPE's received tile to a distinct region of C. *)
  let open Sw_ast in
  let config = Config.tiny ~mesh:2 ~mk:(2, 2, 2) () in
  let mem = Mem.create () in
  (* A's rows 0..1 belong to mesh row 0, rows 2..3 to mesh row 1; each CPE
     loads its own 2x2 tile of A, then row-broadcast from column 0. *)
  Mem.alloc_init mem "A" ~dims:[ 4; 4 ] ~f:(fun idx ->
      float_of_int ((10 * idx.(0)) + idx.(1)));
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
  Engine.spawn eng (fun () -> Engine.delay 1.0);
  ignore (Engine.run eng);
  match Engine.schedule eng ~after:(-2.0) (fun () -> ()) with
  | exception Error.Sim_error (Error.Invalid _) -> ()
  | _ -> Alcotest.fail "negative scheduling accepted"

let test_counter_reset_with_waiters () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  Engine.spawn eng (fun () -> Engine.await c 1);
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      (match Engine.counter_reset c with
      | exception Error.Sim_error (Error.Invalid _) -> ()
      | _ -> Alcotest.fail "reset with waiters accepted");
      Engine.counter_incr c);
  ignore (Engine.run eng)

let test_barrier_mismatch_deadlocks () =
  (* only 2 of 3 parties arrive: the run must report a deadlock instead of
     silently dropping the waiters *)
  let eng = Engine.create () in
  let b = Engine.new_barrier eng ~parties:3 in
  for _ = 1 to 2 do
    Engine.spawn eng (fun () -> Engine.barrier_wait b)
  done;
  match Engine.run eng with
  | exception Error.Sim_error (Error.Deadlock d) ->
      check Alcotest.int "both waiters reported" 2
        (List.length d.Error.fibers)
  | _ -> Alcotest.fail "expected deadlock"

let test_zero_byte_transfer () =
  let eng = Engine.create () in
  let ch = Engine.new_channel eng ~bw_bytes_per_s:100.0 ~latency_s:0.25 in
  let at = ref nan in
  Engine.spawn eng (fun () ->
      let (_ : float * float) =
        Engine.transfer ch ~bytes:0 ~on_complete:(fun () -> at := Engine.now eng)
      in
      ());
  ignore (Engine.run eng);
  Helpers.check_close "latency only" 0.25 !at

let test_many_fibers_scale () =
  (* thousands of fibers interleaving on counters: exercises the heap *)
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let n = 2000 in
  let done_count = ref 0 in
  for i = 1 to n do
    Engine.spawn eng (fun () ->
        Engine.delay (float_of_int (n - i) *. 1e-6);
        Engine.counter_incr c;
        Engine.await c n;
        incr done_count)
  done;
  ignore (Engine.run eng);
  check Alcotest.int "all fibers completed" n !done_count

let test_await_deadline_timeout () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let outcome = ref None in
  Engine.spawn eng (fun () ->
      outcome := Some (Engine.await_deadline c 1 ~timeout:2.0));
  let finish = Engine.run eng in
  check Alcotest.(option bool) "timed out" (Some false) !outcome;
  Helpers.check_close "gave up at the deadline" 2.0 finish

let test_await_deadline_satisfied () =
  let eng = Engine.create () in
  let c = Engine.new_counter eng in
  let outcome = ref None in
  Engine.spawn eng (fun () ->
      outcome := Some (Engine.await_deadline c 1 ~timeout:5.0));
  Engine.spawn eng (fun () ->
      Engine.delay 1.0;
      Engine.counter_incr c);
  ignore (Engine.run eng);
  check Alcotest.(option bool) "woken before deadline" (Some true) !outcome;
  (* the stale timeout event must not fire the continuation twice: a second
     run to the drained queue succeeds *)
  Engine.counter_incr c

let test_watchdog_events () =
  let eng = Engine.create () in
  Engine.set_watchdog eng { Engine.no_watchdog with Engine.max_events = Some 10 };
  (* a self-rescheduling closure would run forever without the budget *)
  let rec again () = Engine.schedule eng ~after:1.0 again in
  Engine.schedule eng ~after:1.0 again;
  match Engine.run eng with
  | exception Error.Sim_error (Error.Watchdog w) -> (
      match w.limit with
      | `Events 10 -> ()
      | _ -> Alcotest.fail "wrong limit reported")
  | _ -> Alcotest.fail "expected watchdog trip"

let test_watchdog_sim_time () =
  let eng = Engine.create () in
  Engine.set_watchdog eng { Engine.no_watchdog with Engine.max_sim_s = Some 5.0 };
  let rec again () = Engine.schedule eng ~after:1.0 again in
  Engine.schedule eng ~after:1.0 again;
  match Engine.run eng with
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
        for i = 0 to 20 do
          let d = Random.State.float rng 1.0 in
          Engine.spawn eng (fun () ->
              Engine.delay d;
              Engine.counter_incr c;
              Engine.await c 10;
              log := (i, Engine.now eng) :: !log)
        done;
        ignore (Engine.run eng);
        !log
      in
      run () = run ())

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
  let mem = Mem.create () in
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
  let mem = Mem.create () in
  let config = Config.tiny ~mesh:1 ~mk:(2, 2, 2) () in
  match Interp.run ~config ~functional:true ~mem prog with
  | Error (Error.Invalid _) -> ()
  | _ -> Alcotest.fail "missing user callback accepted"

let user_tests =
  [
    ("interp user callback", `Quick, test_interp_user_callback);
    ("interp user without callback", `Quick, test_interp_user_missing_callback);
  ]

let tests = tests @ user_tests

(* ------------------------------------------------------------------ *)
(* Arch_desc: presets, typed validation, strict JSON round-trip         *)
(* ------------------------------------------------------------------ *)

let test_arch_desc_presets () =
  List.iter
    (fun (d : Arch_desc.t) ->
      (match Arch_desc.validate d with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "preset %s invalid: %s" d.Arch_desc.name
            (Arch_desc.error_to_string e));
      (match Config.validate (Arch_desc.to_config d) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "preset %s flattens to an invalid config: %s"
            d.Arch_desc.name e);
      match Arch_desc.find d.Arch_desc.name with
      | Some d' when d' = d -> ()
      | _ ->
          Alcotest.failf "find %s does not return the preset" d.Arch_desc.name)
    Arch_desc.all;
  (* legacy spellings resolve to the canonical presets *)
  List.iter
    (fun (alias, canonical) ->
      match Arch_desc.find alias with
      | Some d -> check Alcotest.string alias canonical d.Arch_desc.name
      | None -> Alcotest.failf "alias %s unresolved" alias)
    [ ("tiny-2x2", "tiny2"); ("tiny-4x4", "tiny4") ];
  (* the asymmetric preset really is rectangular after flattening *)
  let c =
    match Arch_desc.config_of_name "sw26010pro-8x4" with
    | Some c -> c
    | None -> Alcotest.fail "sw26010pro-8x4 missing"
  in
  check Alcotest.int "8 rows" 8 c.Config.mesh_rows;
  check Alcotest.int "4 cols" 4 c.Config.mesh_cols

let test_arch_desc_of_config () =
  (* of_config inverts to_config on every preset (the NoC block is not
     part of the flat record, so it is pinned to the preset's own) *)
  List.iter
    (fun (d : Arch_desc.t) ->
      let d' = Arch_desc.of_config ~noc:d.Arch_desc.noc (Arch_desc.to_config d) in
      if d' <> d then
        Alcotest.failf "of_config (to_config %s) differs" d.Arch_desc.name)
    Arch_desc.all

let arch_presets_array = Array.of_list Arch_desc.all

let pick_preset st =
  arch_presets_array.(Random.State.int st (Array.length arch_presets_array))

let arch_json_roundtrip =
  qtest ~count:30 "Arch_desc JSON round-trips through the strict parser"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x41524348 |] in
      let d = pick_preset st in
      match
        Sw_obs.Json.parse (Sw_obs.Json.to_string (Arch_desc.to_json d))
      with
      | Error e -> QCheck.Test.fail_reportf "reparse: %s" e
      | Ok j -> (
          match Arch_desc.of_json j with
          | Error e -> QCheck.Test.fail_reportf "of_json: %s" e
          | Ok d' ->
              d' = d
              || QCheck.Test.fail_reportf "round-trip changed %s"
                   d.Arch_desc.name))

let arch_json_strict =
  qtest ~count:40 "Arch_desc parser rejects missing and unknown fields"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x4152534A |] in
      let d = pick_preset st in
      match Arch_desc.to_json d with
      | Sw_obs.Json.Obj fields -> (
          let mutated =
            if Random.State.bool st then
              let i = Random.State.int st (List.length fields) in
              Sw_obs.Json.Obj (List.filteri (fun j _ -> j <> i) fields)
            else Sw_obs.Json.Obj (("bogus_field", Sw_obs.Json.Int 1) :: fields)
          in
          match Arch_desc.of_json mutated with
          | Error _ -> true
          | Ok _ ->
              QCheck.Test.fail_reportf "mutated %s accepted" d.Arch_desc.name)
      | _ -> QCheck.Test.fail_report "to_json is not an object")

let arch_typed_errors =
  qtest ~count:50 "malformed descriptions are rejected with typed errors"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x41524345 |] in
      let d = pick_preset st in
      let fail_with got =
        QCheck.Test.fail_reportf "wrong verdict for mutated %s: %s"
          d.Arch_desc.name
          (match got with
          | Ok () -> "accepted"
          | Error e -> Arch_desc.error_to_string e)
      in
      match Random.State.int st 5 with
      | 0 -> (
          (* zero or negative mesh dimension *)
          let rows = -Random.State.int st 3 in
          let mesh = { d.Arch_desc.mesh with Arch_desc.rows } in
          match Arch_desc.validate { d with Arch_desc.mesh } with
          | Error (Arch_desc.Empty_mesh m) -> m.Arch_desc.rows = rows
          | r -> fail_with r)
      | 1 -> (
          (* non-positive transfer rate *)
          let bw = -.Random.State.float st 10.0 in
          let dma = { d.Arch_desc.dma with Arch_desc.bw_bytes_per_s = bw } in
          match Arch_desc.validate { d with Arch_desc.dma } with
          | Error (Arch_desc.Non_positive_rate (field, v)) ->
              v = bw && Helpers.contains field "dma"
          | r -> fail_with r)
      | 2 -> (
          (* SPM too small for the nine double-buffered working-set
             buffers of the micro kernel *)
          let needed = Arch_desc.spm_needed_bytes d in
          let spm_bytes = Random.State.int st needed in
          match Arch_desc.validate { d with Arch_desc.spm_bytes } with
          | Error (Arch_desc.Spm_overflow { needed_bytes; spm_bytes = sb }) ->
              needed_bytes = needed && sb = spm_bytes
          | r -> fail_with r)
      | 3 -> (
          let efficiency =
            if Random.State.bool st then 1.0 +. Random.State.float st 4.0
            else -.Random.State.float st 1.0
          in
          let mk = { d.Arch_desc.mk with Arch_desc.efficiency } in
          match Arch_desc.validate { d with Arch_desc.mk } with
          | Error (Arch_desc.Efficiency_out_of_range v) -> v = efficiency
          | r -> fail_with r)
      | _ -> (
          let mk = { d.Arch_desc.mk with Arch_desc.m = 0 } in
          match Arch_desc.validate { d with Arch_desc.mk } with
          | Error (Arch_desc.Empty_micro_kernel _) -> true
          | r -> fail_with r))

let arch_desc_tests =
  [
    ("Arch_desc presets validate and resolve", `Quick, test_arch_desc_presets);
    ("Arch_desc of_config inverts to_config", `Quick, test_arch_desc_of_config);
    arch_json_roundtrip;
    arch_json_strict;
    arch_typed_errors;
  ]

let tests = tests @ arch_desc_tests
