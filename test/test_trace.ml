(* Tests of the execution tracing layer, and through it of the paper's
   central performance claim: the two-level software pipeline (§6) actually
   hides DMA and RMA latency behind the micro kernel. *)

open Sw_core
open Sw_arch

let compile_exn = Helpers.compile_exn

let check = Alcotest.check

let config = Config.sw26010pro
let mesh = (config.Config.mesh_rows, config.Config.mesh_cols)

let traced ?(options = Options.all_on) spec =
  Runner.traced (compile_exn ~options ~config spec)

let spec = Spec.make ~m:512 ~n:512 ~k:2048 ()

(* ------------------------------------------------------------------ *)
(* Trace mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_events_recorded () =
  let trace, _ = traced spec in
  let evs = Trace.events trace in
  Alcotest.(check bool) "events exist" true (List.length evs > 100);
  (* every event has a sane interval *)
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.finish < e.Trace.start then Alcotest.fail "negative interval")
    evs;
  (* all 64 CPEs compute *)
  for r = 0 to 7 do
    for c = 0 to 7 do
      let k =
        Trace.busy trace ~rid:r ~cid:c
          ~kind:(function Trace.Kernel -> true | _ -> false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "CPE(%d,%d) computed" r c)
        true (k > 0.0)
    done
  done

let test_byte_accounting () =
  (* DMA bytes must match the decomposition analytically: per mesh block,
     every CPE gets+puts its C tile once and fetches its A/B panel shares
     nko times. *)
  let trace, _ = traced spec in
  let u = Trace.utilization trace ~mesh in
  let t = (compile_exn ~config spec).Compile.tiles in
  let blocks = t.Tile_model.nbi * t.Tile_model.nbj in
  let per_cpe_per_block =
    (2 * t.Tile_model.tm * t.Tile_model.tn)
    + (t.Tile_model.nko
      * ((t.Tile_model.tm * t.Tile_model.tk) + (t.Tile_model.tk * t.Tile_model.tn)))
  in
  let expected = 8 * blocks * 64 * per_cpe_per_block in
  check Alcotest.int "DMA bytes" expected u.Trace.dma_bytes;
  (* RMA bytes: per block and outer iteration, each of the 8 rows
     broadcasts 8 A tiles and each column 8 B tiles *)
  let rma_expected =
    8 * blocks * t.Tile_model.nko * 8
    * ((8 * t.Tile_model.tm * t.Tile_model.tk)
      + (8 * t.Tile_model.tk * t.Tile_model.tn))
  in
  check Alcotest.int "RMA bytes" rma_expected u.Trace.rma_bytes

let test_gantt_renders () =
  let trace, _ = traced spec in
  let lane = Trace.gantt trace ~rid:0 ~cid:0 ~width:80 in
  check Alcotest.int "width" 80 (String.length lane);
  Alcotest.(check bool) "shows kernel activity" true (String.contains lane 'K');
  let s = Trace.summary trace ~mesh in
  Alcotest.(check bool) "summary non-empty" true (String.length s > 20)

let test_zero_duration_events_recorded () =
  (* a wait on an already-satisfied reply consumes no simulated time; the
     instant must still appear on the forensic timeline *)
  let tiny = Config.tiny () in
  let mem = Mem.create ~functional:false in
  Mem.alloc mem "A" ~dims:[ 8; 8 ];
  let trace = Trace.create () in
  let cluster = Cluster.create ~trace ~config:tiny ~mem () in
  Cluster.alloc_buffers cluster
    [ { Sw_ast.Ast.buf_name = "bufA"; rows = 4; cols = 4; copies = 1 } ];
  Cluster.alloc_replies cluster [ "rA" ];
  let c00 = (Cluster.cpes cluster).(0) in
  let reply = c00.Cluster.replies.(0) in
  let wait =
    [
      (fun _ -> Cluster.wait_reply cluster c00 ~reply ~rcopy:0);
      Helpers.now_do (fun () -> Cluster.wait_done cluster c00 ~reply);
    ]
  in
  let script =
    [
      Helpers.now_do (fun () ->
          let zero = Sw_poly.Aff.const 0 in
          Cluster.dma cluster c00
            {
              Sw_tree.Comm.array = "A";
              spm = Sw_tree.Comm.buf "bufA";
              batch = None;
              row_lo = zero;
              col_lo = zero;
              rows = 4;
              cols = 4;
              reply = "rA";
              reply_parity = None;
            }
            ~put:false ~array:(Option.get (Mem.handle mem "A")) ~batch:0 ~row_lo:0 ~col_lo:0
            ~buf:0 ~copy:0 ~reply ~rcopy:0);
    ]
    @ wait
    (* second wait on the same reply: satisfied at issue, zero duration *)
    @ wait
  in
  ignore
    (Engine.run (Cluster.engine cluster)
       ~resume:(Helpers.scripted [| script |])
       ~event:(Cluster.complete cluster));
  let is_wait = function Trace.Wait_reply _ -> true | _ -> false in
  let waits =
    List.filter
      (fun (e : Trace.event) -> is_wait e.Trace.kind)
      (Trace.events trace)
  in
  check Alcotest.int "both waits recorded" 2 (List.length waits);
  let instants = List.filter Trace.instant waits in
  check Alcotest.int "one is instantaneous" 1 (List.length instants);
  let e = List.hd instants in
  check (Alcotest.float 0.0) "empty interval" e.Trace.start e.Trace.finish;
  (* instants never contribute to busy-time accounting *)
  (* DMA armed the reply, so the wait must be attributed to the DMA level *)
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Wait_reply { reply; rma } ->
          check Alcotest.string "reply name" "rA" reply;
          check Alcotest.bool "attributed to DMA" false rma
      | _ -> ())
    waits;
  let blocked = Trace.busy trace ~rid:0 ~cid:0 ~kind:is_wait in
  let real = List.find (fun e -> not (Trace.instant e)) waits in
  check (Alcotest.float 1e-15) "busy = the one real wait"
    (real.Trace.finish -. real.Trace.start)
    blocked

let test_empty_trace_utilization () =
  (* an empty trace, or one of only instants, has no span: utilization
     must come back all-zero instead of dividing by it *)
  let empty = Trace.create () in
  let u = Trace.utilization empty ~mesh:(2, 2) in
  check (Alcotest.float 0.0) "span" 0.0 u.Trace.span;
  check (Alcotest.float 0.0) "kernel frac" 0.0 u.Trace.kernel_frac;
  check (Alcotest.float 0.0) "blocked frac" 0.0 u.Trace.blocked_frac;
  check Alcotest.int "dma bytes" 0 u.Trace.dma_bytes;
  check Alcotest.int "rma bytes" 0 u.Trace.rma_bytes;
  let instants_only = Trace.create () in
  Trace.record instants_only
    {
      Trace.rid = 0;
      cid = 0;
      kind = Trace.Wait_reply { reply = "r"; rma = false };
      start = 3.0;
      finish = 3.0;
    };
  let u = Trace.utilization instants_only ~mesh:(2, 2) in
  check (Alcotest.float 0.0) "instants-only span" 0.0 u.Trace.span;
  check (Alcotest.float 0.0) "instants-only blocked" 0.0 u.Trace.blocked_frac

(* ------------------------------------------------------------------ *)
(* The latency-hiding claims of §6                                      *)
(* ------------------------------------------------------------------ *)

let test_pipeline_hides_latency () =
  (* with the full pipeline the mesh spends most of its time in the micro
     kernel; without hiding it is mostly blocked. A deep K gives the
     pipeline enough overlaps (ceil(K/256) - 1 of them, §8.1). *)
  let spec = Spec.make ~m:512 ~n:512 ~k:8192 () in
  let t_full, _ = traced spec in
  let t_nohide, _ = traced ~options:Options.with_rma spec in
  let u_full = Trace.utilization t_full ~mesh in
  let u_nohide = Trace.utilization t_nohide ~mesh in
  Alcotest.(check bool)
    (Printf.sprintf "full pipeline busy (%.2f)" u_full.Trace.kernel_frac)
    true
    (u_full.Trace.kernel_frac > 0.75);
  Alcotest.(check bool)
    (Printf.sprintf "no-hiding mostly idle (%.2f)" u_nohide.Trace.kernel_frac)
    true
    (u_nohide.Trace.kernel_frac < 0.55);
  Alcotest.(check bool) "blocking reduced by hiding" true
    (u_full.Trace.blocked_frac < u_nohide.Trace.blocked_frac)

let test_same_traffic_different_time () =
  (* hiding changes when transfers happen, not how much is transferred *)
  let t_full, p_full = traced spec in
  let t_nohide, p_nohide = traced ~options:Options.with_rma spec in
  let u_full = Trace.utilization t_full ~mesh in
  let u_nohide = Trace.utilization t_nohide ~mesh in
  check Alcotest.int "same DMA traffic" u_nohide.Trace.dma_bytes u_full.Trace.dma_bytes;
  check Alcotest.int "same RMA traffic" u_nohide.Trace.rma_bytes u_full.Trace.rma_bytes;
  Alcotest.(check bool) "but faster" true
    (p_full.Runner.seconds < p_nohide.Runner.seconds)

let test_rma_cuts_dma_traffic () =
  (* §5: the broadcast scheme cuts main-memory traffic by the mesh width *)
  let t_rma, _ = traced ~options:Options.with_rma spec in
  let t_plain, _ = traced ~options:Options.with_asm spec in
  let u_rma = Trace.utilization t_rma ~mesh in
  let u_plain = Trace.utilization t_plain ~mesh in
  (* input traffic dominates; the C tiles are the same on both sides *)
  let c_bytes =
    let t = (compile_exn ~config spec).Compile.tiles in
    8 * 2 * t.Tile_model.nbi * t.Tile_model.nbj * 64 * t.Tile_model.tm * t.Tile_model.tn
  in
  let inputs_rma = u_rma.Trace.dma_bytes - c_bytes in
  let inputs_plain = u_plain.Trace.dma_bytes - c_bytes in
  check Alcotest.int "8x reduction of input DMA traffic" inputs_plain
    (8 * inputs_rma)

(* ------------------------------------------------------------------ *)
(* Event-stream digests                                                 *)
(* ------------------------------------------------------------------ *)

(* Each simulation below is pinned by the digest of its full event stream
   (who did what, when, in which order) and by its outcome, not only by its
   seconds: a simulator change that reorders equal-time events or moves a
   wait keeps the totals yet changes the digest. On a deliberate change,
   the failure prints the new table for re-pinning. *)

(* FNV-1a style over each event's fields, [start] and [finish] as IEEE bit
   patterns: OCaml ints, so the offset basis loses its top bit and the
   product wraps at 63 bits. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_float h f =
  let b = Int64.bits_of_float f in
  mix
    (mix h (Int64.to_int (Int64.shift_right_logical b 32)))
    (Int64.to_int (Int64.logand b 0xffffffffL))

let mix_kind h = function
  | Trace.Kernel -> mix h 0
  | Trace.Spm_op -> mix h 1
  | Trace.Dma { bytes; put } -> mix (mix h (if put then 2 else 3)) bytes
  | Trace.Rma { bytes; sender } -> mix (mix h (if sender then 4 else 5)) bytes
  | Trace.Wait_reply { reply; rma } ->
      String.fold_left
        (fun h ch -> mix h (Char.code ch))
        (mix h (if rma then 6 else 7))
        reply
  | Trace.Barrier -> mix h 8

let fold h (e : Trace.event) =
  mix_float
    (mix_float (mix_kind (mix (mix h e.Trace.rid) e.Trace.cid) e.Trace.kind) e.Trace.start)
    e.Trace.finish

let outcome = function
  | Ok (r, _) ->
      Printf.sprintf "%h retries=%d" r.Interp.seconds r.Interp.retries
  | Error e -> Error.to_string e

let digest_of ?faults ?retry ~config program =
  let digest = ref 0x4bf29ce484222325 in
  let trace = Trace.create ~sink:(fun e -> digest := fold !digest e) () in
  let r =
    Runner.simulate ~trace ?faults ?retry ~config program ~operands:[]
  in
  Printf.sprintf "%016x %s" !digest (outcome r)

let check_digests name expected actual =
  if actual <> expected then begin
    Printf.eprintf "%s: actual digests\n" name;
    List.iter (fun (k, d) -> Printf.eprintf "    (%S,\n     %S);\n" k d) actual
  end;
  check Alcotest.(list (pair string string)) name expected actual

let golden_digests =
  [
    ("gemm512",
     "7e57ad0060a10fba 0x1.c502df0315677p-12 retries=0");
    ("fused_batched",
     "17e3d76dfbd92364 0x1.873eb15493ff3p-11 retries=0");
    ("gemm1024",
     "3d8a9113972d46e9 0x1.e8b65298609fcp-10 retries=0");
  ]

let test_digest_golden_shapes () =
  let run name spec =
    (name, digest_of ~config (compile_exn ~config spec).Compile.program)
  in
  check_digests "golden shapes" golden_digests
    [
      run "gemm512" (Spec.make ~m:512 ~n:512 ~k:512 ());
      run "fused_batched"
        (Spec.make ~fusion:(Spec.Epilogue "relu") ~batch:2 ~m:512 ~n:512
           ~k:512 ());
      run "gemm1024" (Spec.make ~m:1024 ~n:1024 ~k:1024 ());
    ]

let exact_2048_digest =
  [
    ("gemm2048",
     "45f710a866046fd8 0x1.6baa25689dd8fp-7 retries=0");
  ]

let test_digest_exact_2048 () =
  let c = compile_exn ~config (Spec.make ~m:2048 ~n:2048 ~k:2048 ()) in
  check_digests "exact 2048^3" exact_2048_digest
    [ ("gemm2048", digest_of ~config c.Compile.program) ]

(* Fault paths: delayed and re-delivered increments, stale deadlines and
   the retry ladder, its exhaustion, and the deadlock diagnosis. *)
let fault_digests =
  [
    ("timing kinds",
     "459730b3e0aab8e2 0x1.298ff2f136964p-12 retries=0");
    ("redelivered drops, retry",
     "23318b3edfb7b7fc 0x1.1896070a2ecc2p-8 retries=100");
    ("all kinds, retry",
     "06703e6f6a766c05 0x1.2850972c0c0b1p-8 retries=108");
    ("permanent drops, retry",
     "282a49a0b154f810 fault_exhausted: CPE(0,0): wait on rCg[0] still unsatisfied after 8 retries at t=0.02555s");
    ("permanent drops, no retry",
     "67978937e451ef3a deadlock at t=1.51506e-06s after 8 event(s), 4 fiber(s) blocked:\n  CPE(0,0) awaiting rCg[0] >= 1 (currently 0), parked at t=0s\n  CPE(0,1) awaiting rCg[0] >= 1 (currently 0), parked at t=0s\n  CPE(1,0) awaiting rCg[0] >= 1 (currently 0), parked at t=0s\n  CPE(1,1) awaiting rCg[0] >= 1 (currently 0), parked at t=0s");
  ]

let test_digest_fault_paths () =
  let tiny = Config.tiny () in
  let program =
    (compile_exn ~config:tiny (Spec.make ~m:16 ~n:8 ~k:16 ())).Compile.program
  in
  let run name ?retry ~kinds ?(drop_prob = 0.35) ?(permanent = 0.0) seed =
    let spec =
      {
        (Fault.spec_with ~kinds Fault.default_spec) with
        Fault.drop_prob;
        drop_permanent_frac = permanent;
      }
    in
    let faults = Fault.plan ~spec ~seed () in
    (name, digest_of ~faults ?retry ~config:tiny program)
  in
  let retry = Interp.default_retry in
  check_digests "fault paths" fault_digests
    [
      run "timing kinds"
        ~kinds:[ Fault.Jitter; Fault.Stall; Fault.Straggler; Fault.Delay_reply ]
        7;
      run "redelivered drops, retry" ~retry ~kinds:[ Fault.Drop_reply ] 3;
      run "all kinds, retry" ~retry ~kinds:Fault.all_kinds 11;
      run "permanent drops, retry" ~retry ~kinds:[ Fault.Drop_reply ]
        ~drop_prob:1.0 ~permanent:1.0 5;
      run "permanent drops, no retry" ~kinds:[ Fault.Drop_reply ]
        ~drop_prob:1.0 ~permanent:1.0 1;
    ]

let corpus_digests =
  [
    ("case-00011bf1.json",
     "50dd6dadbb47a1ac 0x1.97a97835c5f2bp-13 retries=0");
    ("case-00627a30.json",
     "06cfdb68b6b2aae2 0x1.0a5d9b194b855p-13 retries=0");
    ("case-011cbde0.json",
     "0a663010d894ad82 0x1.0bff6636eeffap-13 retries=0");
    ("case-01890066.json",
     "43c12d14e6ab7902 0x1.72172ff58156p-13 retries=0");
    ("case-018d8352.json",
     "09ab91334117eeb2 0x1.7de46c08ab2e8p-13 retries=0");
    ("case-03b28e32.json",
     "469468844c986a66 0x1.1e20ca0e87f52p-13 retries=0");
    ("case-03d51eb1.json",
     "15b280e216d97d5d 0x1.83c1ec9d1d9fp-13 retries=0");
    ("case-03f4c402.json",
     "2bbd847c0bf7f3af 0x1.71ba52bc10157p-13 retries=0");
    ("case-0489f0d9.json",
     "1f828a260d422b0e 0x1.4f8a798560c67p-13 retries=0");
    ("case-0667e178.json",
     "35cd1fb2727d76ae 0x1.2f4b520f2e81ep-12 retries=0");
    ("case-06a6609b.json",
     "3ce01d93c4de5f01 0x1.3629ae78c14b2p-13 retries=0");
    ("case-07117aab.json",
     "056e9b1c581edbd8 0x1.a58867c20f9a6p-12 retries=0");
    ("case-07dd3b2f.json",
     "434707c9873042e1 0x1.2796c5995e586p-13 retries=0");
    ("case-07efa469.json",
     "1d183a22f844e59f 0x1.4bc9500cf659fp-13 retries=0");
    ("case-09a0fce9.json",
     "790665143218bd85 0x1.2c898be8ced7fp-12 retries=0");
    ("case-0a0e0037.json",
     "61000e0bba6e6318 0x1.ce11d2261aa75p-13 retries=0");
    ("case-0b42ca55.json",
     "3fd4411ff0ae29c1 0x1.1026b813cb566p-13 retries=0");
    ("case-0b8fcf11.json",
     "2810c6de123a26d5 0x1.496dacb38dc46p-13 retries=0");
    ("case-0ca20da8.json",
     "221104060d1f0ff1 0x1.31128ef7cbcfcp-13 retries=0");
    ("case-0cc61f78.json",
     "34ad43fce4d98569 0x1.93119aa6ef58ep-13 retries=0");
    ("case-0cd3dc8a.json",
     "7590cbb9f82b2d29 0x1.70e9eee6031ccp-13 retries=0");
    ("case-0d168334.json",
     "7d58c1deb9ee66f4 0x1.9a2136f5567d6p-13 retries=0");
    ("case-0dd87da9.json",
     "1a8131bf27a21209 0x1.60e025b46e026p-13 retries=0");
    ("case-0de86e91.json",
     "1d2803de899841db 0x1.2ba359e0d93cfp-13 retries=0");
    ("case-0e183714.json",
     "54d4e58566dec085 0x1.e2bf8ebe4897p-13 retries=0");
    ("case-0ecd3ca1.json",
     "18ae4cacce46c95d 0x1.9a634a55d315bp-13 retries=0");
    ("case-10115f81.json",
     "4869ebbabd925090 0x1.4a3c6057496a4p-13 retries=0");
    ("case-1117a4d9.json",
     "6d875f38d75ed4ba 0x1.3bb3bc077d895p-13 retries=0");
    ("case-1147510a.json",
     "76bc1762c02db376 0x1.8a36ab44dfe4ap-13 retries=0");
    ("case-11b66495.json",
     "2f77571c70956a25 0x1.768cd510e1b6ep-13 retries=0");
    ("case-130d1a55.json",
     "7987ac1420a2ee42 0x1.265cae3e06ae9p-13 retries=0");
    ("case-132304eb.json",
     "61e68e7b3af1c73c 0x1.4daf4b92a5c7bp-13 retries=0");
    ("case-13f4ff15.json",
     "723b5d0f0845c293 0x1.35a419b12a749p-13 retries=0");
    ("case-14967e94.json",
     "27340d4f56d4e64d 0x1.3b84c61572757p-13 retries=0");
    ("case-14ddc9dc.json",
     "558f59e2889dedd8 0x1.24ba8ac60d887p-13 retries=0");
    ("case-15c8f824.json",
     "57adf119e7cacf8e 0x1.868c6777700a6p-13 retries=0");
    ("case-16192d01.json",
     "1383000661099038 0x1.60b798defe5abp-12 retries=0");
    ("case-17de2315.json",
     "268c8bbac49dcf0e 0x1.60e025b46e026p-13 retries=0");
    ("case-192a208a.json",
     "43c12d14e6ab7902 0x1.72172ff58156p-13 retries=0");
    ("case-19ca4ed5.json",
     "7336e7ea95702632 0x1.170be2bd1158ap-13 retries=0");
    ("case-19ddee12.json",
     "7336e7ea95702632 0x1.170be2bd1158ap-13 retries=0");
    ("case-1abb34c0.json",
     "4a1f29cefcc95e20 0x1.5e8cbe23ea9acp-13 retries=0");
    ("case-1b54bab1.json",
     "05d853535f1c9f33 0x1.19ced90e7bb4fp-13 retries=0");
    ("case-1bb2b2d4.json",
     "54855a88d38842e2 0x1.25cbe36b4133dp-13 retries=0");
    ("case-1c386751.json",
     "649abcd96ae3578a 0x1.1d5a8a6ef59aep-13 retries=0");
    ("case-1c52a88f.json",
     "503c386cb2dbfb35 0x1.3afeea10b8d91p-13 retries=0");
    ("case-1d9634ab.json",
     "095b56ebe3074ecc 0x1.309a0a3dfe54ap-13 retries=0");
    ("case-1d9965f9.json",
     "25e1ae57bebe3eea 0x1.36a59246cf5cbp-13 retries=0");
    ("case-1dadea69.json",
     "5fb76d476229ba2e 0x1.3101257d0693ap-13 retries=0");
    ("case-1f0501f0.json",
     "7a16dcc455fa6380 0x1.1cd433d31113ap-13 retries=0");
    ("case-1fc0c0e7.json",
     "2b481c8fd314f3b5 0x1.7b9c998c81d9bp-13 retries=0");
    ("case-206e0a16.json",
     "06bead961cd50d83 0x1.2c22bfb00b64fp-13 retries=0");
    ("case-239612e5.json",
     "70f29677087b0075 0x1.09654fd5206ebp-13 retries=0");
    ("case-249533df.json",
     "04d5e3b1827fb38b 0x1.0cb5138e72cd9p-13 retries=0");
    ("case-25c491cd.json",
     "13f310b8f759816c 0x1.9d15fcfffa9c8p-13 retries=0");
    ("case-26320061.json",
     "430e9c134c638b4e 0x1.ab43dc767f8f6p-13 retries=0");
    ("case-29c61f93.json",
     "6199a8b9ad18bfb1 0x1.4a3c6057496a3p-13 retries=0");
    ("case-2b5f3df4.json",
     "7ca0690a4b51ebe4 0x1.303acb061b80fp-13 retries=0");
    ("case-2bcdd553.json",
     "235bc6345ccb9d14 0x1.a173c638ca783p-13 retries=0");
    ("case-2c9cc606.json",
     "6c9556126a38be10 0x1.5bb650b5afd18p-13 retries=0");
    ("case-2d1ea457.json",
     "6b3ef062ab660e9e 0x1.60840b59f63e3p-13 retries=0");
    ("case-2d3557db.json",
     "2cc1285feefa3bea 0x1.158964e1cbd48p-12 retries=0");
    ("case-2f78db07.json",
     "627c706d8c47bbdc 0x1.09654fd5206ebp-13 retries=0");
    ("case-31413c00.json",
     "5c3ca699e6ad5993 0x1.14a9104288b97p-12 retries=0");
    ("case-31ed23d3.json",
     "326a607f3f8e053a 0x1.3601357fe0bc5p-13 retries=0");
    ("case-328d84eb.json",
     "1fc4db53b491f086 0x1.1528e7d69da0ep-12 retries=0");
    ("case-32e1d335.json",
     "1ecc2cf187eb6ad6 0x1.196d2601de313p-13 retries=0");
    ("case-32f770e1.json",
     "5a9dcc3a17576655 0x1.30a182f93c8ffp-13 retries=0");
    ("case-32fc3dd5.json",
     "2c6f19bf0bf6f820 0x1.5366b785e380cp-13 retries=0");
    ("case-3349fb1f.json",
     "65c130f92d227638 0x1.0cb920a9d180fp-13 retries=0");
    ("case-344e1dcd.json",
     "7d45675c9c3d6491 0x1.9fb0047a32965p-13 retries=0");
    ("case-34db1238.json",
     "68d3da4258a0ad62 0x1.23c4b8298a559p-13 retries=0");
    ("case-36011b0c.json",
     "41ccb57469224a5d 0x1.228e1faf535ecp-13 retries=0");
    ("case-380a2454.json",
     "150f40296706c0ca 0x1.7c15c29d535a4p-13 retries=0");
    ("case-38c2e7cb.json",
     "3631825367939b75 0x1.1f430a37a21d1p-13 retries=0");
    ("case-38c9103d.json",
     "79db5b01b5ad245d 0x1.43919cfad9436p-13 retries=0");
    ("case-38fb6bbb.json",
     "3fe4c0152e451f56 0x1.0c7b37d8db55dp-13 retries=0");
    ("case-39576749.json",
     "78c1f6a9779a823f 0x1.5e81227cbc72bp-13 retries=0");
    ("case-39d2504b.json",
     "6cc4120920382dc7 0x1.4bba33769e411p-13 retries=0");
    ("case-3b126b57.json",
     "00190c0be8a0d798 0x1.b07038ff696p-13 retries=0");
    ("case-3bf001a8.json",
     "1fc4db53b491f086 0x1.1528e7d69da0ep-12 retries=0");
    ("case-3c229285.json",
     "4912495ed1221566 0x1.6ac13cf39061cp-13 retries=0");
    ("case-3d3d2860.json",
     "22eb285054189570 0x1.0f6bdbe023069p-13 retries=0");
    ("case-3e249bba.json",
     "638b1b929171bbaf 0x1.afbd57ddf6596p-13 retries=0");
    ("case-3e2d6b5d.json",
     "423913e4f0a70498 0x1.89f10559caf44p-13 retries=0");
    ("case-3e6eb8cd.json",
     "4a485da0b2ee3adf 0x1.1022d986bbf3ap-13 retries=0");
    ("case-3ecc3bfb.json",
     "627c706d8c47bbdc 0x1.09654fd5206ebp-13 retries=0");
    ("case-3ee1a16c.json",
     "33e022b580038805 0x1.e757fbafaa4cp-13 retries=0");
    ("case-3ff46946.json",
     "347825d71c68fa90 0x1.3c0c750fe0435p-13 retries=0");
    ("case-3fffcb1f.json",
     "23076d9f896bda2d 0x1.a0d705e75f348p-13 retries=0");
  ]

(* Every case of test/corpus/, as a timing run on its tiny machine. *)
let test_digest_corpus () =
  let corpus = Helpers.beside_exe "corpus" in
  let files =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  let digest file =
    let case =
      match
        Result.bind
          (Sw_obs.Json.parse_file (Filename.concat corpus file))
          (fun j ->
            match Sw_obs.Json.member "case" j with
            | Some c -> Sw_check.Case.of_json c
            | None -> Error "no case")
      with
      | Ok c -> c
      | Error e -> Alcotest.failf "%s: %s" file e
    in
    let config = Sw_check.Case.config_of case.Sw_check.Case.config in
    let session =
      Session.create ~no_cache:true ~options:case.Sw_check.Case.options
        ~arch:config ()
    in
    match Compile.run session case.Sw_check.Case.spec with
    | Ok c -> (file, digest_of ~config c.Compile.program)
    | Error e -> (file, "compile: " ^ Error.to_string e)
  in
  check_digests "corpus" corpus_digests (List.map digest files)

let tests =
  [
    ("event-stream digests: golden shapes", `Quick, test_digest_golden_shapes);
    ("event-stream digests: exact 2048^3", `Quick, test_digest_exact_2048);
    ("event-stream digests: fault paths", `Quick, test_digest_fault_paths);
    ("event-stream digests: tiny corpus", `Quick, test_digest_corpus);
    ("events recorded", `Quick, test_events_recorded);
    ("byte accounting", `Quick, test_byte_accounting);
    ("gantt renders", `Quick, test_gantt_renders);
    ("zero-duration events recorded", `Quick, test_zero_duration_events_recorded);
    ("empty trace utilization", `Quick, test_empty_trace_utilization);
    ("pipeline hides latency (§6)", `Quick, test_pipeline_hides_latency);
    ("same traffic, less time", `Quick, test_same_traffic_different_time);
    ("RMA cuts DMA traffic 8x (§5)", `Quick, test_rma_cuts_dma_traffic);
  ]
