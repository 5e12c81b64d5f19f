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
  let c00 = Cluster.cpe cluster ~rid:0 ~cid:0 in
  let buf = c00.Cluster.buffers.(0) and reply = c00.Cluster.replies.(0) in
  Engine.spawn ~label:"CPE(0,0)" cluster.Cluster.engine (fun () ->
      Cluster.dma_get cluster c00 ~array_name:"A" ~batch:None ~row_lo:0
        ~col_lo:0 ~rows:4 ~cols:4 ~buf ~copy:0 ~reply ~rcopy:0;
      Cluster.wait_reply cluster c00 ~reply ~rcopy:0;
      (* second wait on the same reply: satisfied at issue, zero duration *)
      Cluster.wait_reply cluster c00 ~reply ~rcopy:0);
  ignore (Engine.run cluster.Cluster.engine);
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

let tests =
  [
    ("events recorded", `Quick, test_events_recorded);
    ("byte accounting", `Quick, test_byte_accounting);
    ("gantt renders", `Quick, test_gantt_renders);
    ("zero-duration events recorded", `Quick, test_zero_duration_events_recorded);
    ("empty trace utilization", `Quick, test_empty_trace_utilization);
    ("pipeline hides latency (§6)", `Quick, test_pipeline_hides_latency);
    ("same traffic, less time", `Quick, test_same_traffic_different_time);
    ("RMA cuts DMA traffic 8x (§5)", `Quick, test_rma_cuts_dma_traffic);
  ]
