(* Shared plumbing of the host-speed benchmark: the monotonic clock, exact
   percentiles, the span recorder behind the traced runs, the per-layer
   metric table and scratch directories. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Exact statistics over raw samples                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the ceil(q n)-th smallest sample. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median xs = percentile xs 0.5

(* The tail the benchmark reports: p99 once there are 1000 samples, else
   the highest rank that still has ten samples beyond it, else the
   maximum. Returns the value and the quantile it stands for. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 1.0)
  else if n >= 1000 then (percentile xs 0.99, 0.99)
  else if n > 10 then (a.(n - 11), float_of_int (n - 10) /. float_of_int n)
  else (a.(n - 1), 1.0)

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                               *)
(* ------------------------------------------------------------------ *)

(* Shared hosts change speed by tens of percent within seconds, and a
   whole run moves with them. Every reported time is therefore scaled to
   a reference host speed, measured in-line (never concurrently with the
   workload) by a fixed kernel that uses none of the code under test:
   allocation, dependent loads over a 512 KiB table and float work. *)
let kernel () =
  let n = 1 lsl 16 in
  let table = Array.init n (fun i -> (i * 40503) land (n - 1)) in
  let x = ref 0 and f = ref 0.0 and l = ref [] in
  for r = 1 to 4 do
    for i = 0 to n - 1 do
      x := table.((!x lxor i) land (n - 1));
      f := !f +. Float.sqrt (float_of_int (!x + r));
      if i land 7 = 0 then l := (!x, !f) :: !l
    done;
    l := []
  done;
  ignore (Sys.opaque_identity (!x, !f, !l))

(* Kernel seconds on the reference host (this benchmark's development
   host at its usual speed); it only sets the scale. *)
let reference_kernel_s = 0.0026

(* Seconds of one kernel now: the fastest of five. *)
let calibrate () =
  List.fold_left Float.min Float.infinity
    (List.init 5 (fun _ -> snd (time kernel)))

(* Host seconds measured between two calibrations, in reference seconds. *)
let normalize ~before ~after dt = dt *. reference_kernel_s /. ((before +. after) /. 2.0)

(* The last calibration of a sequence of timed operations. *)
type clock = float ref

let clock () : clock = ref (calibrate ())

(* Time [f] between the calibration before it and a fresh one after it:
   the result, the raw seconds and the reference seconds. *)
let timed (clock : clock) f =
  let r, dt = time f in
  let now = calibrate () in
  let n = normalize ~before:!clock ~after:now dt in
  clock := now;
  (r, dt, n)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* One recorded call into a layer. [cat] names the layer, [id] the
   request, candidate or case the call served. Recording is
   mutex-protected so server threads and client threads can share one
   recorder; the events are exported as Sw_obs.Span complete events. *)
type span = {
  name : string;
  cat : string;
  id : string;
  tid : int;
  t0 : float;
  t1 : float;
}

type recorder = { mutable spans : span list; lock : Mutex.t; epoch : float }

let recorder () = { spans = []; lock = Mutex.create (); epoch = now () }

let add r s =
  Mutex.lock r.lock;
  r.spans <- s :: r.spans;
  Mutex.unlock r.lock

let span r ?(tid = 0) ~cat ~id name f =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> add r { name; cat; id; tid; t0; t1 = now () })
    f

(* Self time per layer: a span's duration minus the part covered by its
   direct children on the same track. *)
let self_times r =
  let tbl = Hashtbl.create 16 in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value (Hashtbl.find_opt by_tid s.tid) ~default:[]))
    r.spans;
  let credit cat d =
    Hashtbl.replace tbl cat
      (d +. Option.value (Hashtbl.find_opt tbl cat) ~default:0.0)
  in
  Hashtbl.iter
    (fun _ spans ->
      let spans =
        List.sort
          (fun a b ->
            match compare a.t0 b.t0 with 0 -> compare b.t1 a.t1 | c -> c)
          spans
      in
      (* stack of open ancestors *)
      let rec place stack s =
        match stack with
        | p :: rest when s.t0 >= p.t1 -> place rest s
        | p :: _ ->
            credit p.cat (-.(s.t1 -. s.t0));
            s :: stack
        | [] -> [ s ]
      in
      ignore
        (List.fold_left
           (fun stack s ->
             credit s.cat (s.t1 -. s.t0);
             place stack s)
           [] spans))
    by_tid;
  tbl

let write_chrome r ~path =
  let sink = Sw_obs.Span.create ~clock:now ~epoch:r.epoch () in
  Sw_obs.Span.set_process_name sink ~pid:Sw_obs.Span.host_pid "perfbench";
  List.iter
    (fun s ->
      Sw_obs.Span.complete sink ~cat:s.cat
        ~args:[ ("id", Sw_obs.Span.S s.id) ]
        ~pid:Sw_obs.Span.host_pid ~tid:s.tid
        ~ts_us:((s.t0 -. r.epoch) *. 1e6)
        ~dur_us:((s.t1 -. s.t0) *. 1e6)
        s.name)
    (List.rev r.spans);
  Sw_obs.Json.write_file ~path (Sw_obs.Span.to_chrome sink)

(* ------------------------------------------------------------------ *)
(* Metric tables                                                        *)
(* ------------------------------------------------------------------ *)

(* End-to-end metrics: what a user of each entry point sees. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("throughput_per_s", "1/s");
    ("ok_ratio", "ratio");
  ]

(* Layer names of the self-time metrics, as used in span [cat]s. *)
let layers =
  [
    "tuner"; "compiler"; "simulator"; "session"; "daemon"; "loadgen";
    "conformance"; "frontend"; "blas";
  ]

let passes =
  [
    "tile"; "mesh_bind"; "strip_mine"; "dma_insert"; "rma_broadcast";
    "pipeline_hiding"; "fusion"; "astgen";
  ]

(* Per-layer metrics of the traced run. Every workload reports every
   one; a layer the workload does not reach reads 0. *)
let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("runner.exact_s", "s");
    ("runner.extrap_s", "s");
    ("runner.exact_n", "count");
    ("runner.extrap_n", "count");
    ("runner.block_compile_s", "s");
    ("runner.verify_ms", "ms");
    ("sim.functional_events_per_s", "1/s");
    ("tune.measurements", "count");
    ("tune.bound_pruned", "count");
    ("tune.legality_pruned", "count");
    ("tune.gflops", "GFLOPS");
    ("tune.wall_s", "s");
    ("space.realize_ms", "ms");
    ("tune.search_overhead_s", "s");
    ("compile.cold_ms", "ms");
  ]
  @ List.map (fun p -> ("pass." ^ p ^ "_ms", "ms")) passes
  @ [
      ("plan_cache.hit_ratio", "ratio");
      ("plan_cache.lookups", "count");
      ("plan_cache.evictions", "count");
      ("store.hit_ratio", "ratio");
      ("store.lookups", "count");
      ("store.puts", "count");
      ("store.served_corrupt", "count");
      ("session.hit_us", "us");
      ("session.store_ms", "ms");
      ("session.cold_ms", "ms");
      ("codec.encode_us", "us");
      ("codec.decode_us", "us");
      ("codec.plan_kb", "KB");
      ("store.warm_start_s", "s");
      ("store.warm_loaded", "count");
      ("service.compile_ms", "ms");
      ("service.profile_ms", "ms");
      ("wire.decode_us", "us");
      ("wire.encode_us", "us");
      ("wire.response_kb", "KB");
      ("server.overhead_ms", "ms");
      ("server.shed", "count");
      ("server.errored", "count");
      ("loadgen.late_p99_ms", "ms");
      ("serve.capacity_rps", "1/s");
      ("gen.case_us", "us");
      ("oracle.check_ms", "ms");
      ("oracle.exec_ms", "ms");
      ("blas.ref_ms", "ms");
      ("fuzz.cases", "count");
      ("fuzz.disagreements", "count");
      ("gc.minor_mb", "MB");
      ("gc.major_collections", "count");
      ("trace.overhead_pct", "%");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) layers

(* What one run of a workload hands back to the driver. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** correctness-gate violations *)
  values : (string, float) Hashtbl.t;  (** metric name -> value *)
}

let outcome () =
  { attempted = 0; failed = 0; problems = []; values = Hashtbl.create 64 }

let set o name v = Hashtbl.replace o.values name v

let problem o fmt = Printf.ksprintf (fun s -> o.problems <- s :: o.problems) fmt
let get o name = Option.value (Hashtbl.find_opt o.values name) ~default:0.0

let record_self_times o r =
  Hashtbl.iter (fun cat s -> set o ("self." ^ cat ^ "_s") s) (self_times r)

(* GC work done by [f]. *)
let with_gc o f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  set o "gc.minor_mb" ((g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6);
  set o "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  r

(* Peak resident set of this process, from /proc. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Scratch directories (always under the benchmark's work directory)   *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

let fresh_dir ~work tag =
  incr counter;
  let d =
    Filename.concat work
      (Printf.sprintf "%s.%d.%d" tag (Unix.getpid ()) !counter)
  in
  rm_rf d;
  mkdir_p d;
  d
