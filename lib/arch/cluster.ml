type cpe = {
  rid : int;
  cid : int;
  spm : Spm.t;
  replies : (string, Engine.counter array) Hashtbl.t;
}

type t = {
  config : Config.t;
  engine : Engine.t;
  mem : Mem.t;
  cpes : cpe array array;
  dma : Engine.channel;
  row_links : Engine.channel array;
  col_links : Engine.channel array;
  barrier : Engine.barrier;
  trace : Trace.t option;
  faults : Fault.t option;
  (* which primitive last armed each reply counter name: true = RMA
     broadcast, false = DMA. Lets wait events attribute their exposed
     latency to a pipeline level without hard-coding reply names. *)
  reply_rma : (string, bool) Hashtbl.t;
  (* wait-latency histograms, resolved once from the ambient registry *)
  m_wait_dma : Sw_obs.Metrics.histogram option;
  m_wait_rma : Sw_obs.Metrics.histogram option;
}

let create ?trace ?faults ~config ~mem () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e ->
      raise
        (Error.Sim_error
           (Error.Invalid ("Cluster.create: " ^ Config.error_to_string e))));
  let engine = Engine.create () in
  let mk_cpe rid cid =
    {
      rid;
      cid;
      spm =
        Spm.create ~capacity_bytes:config.Config.spm_bytes
          ~functional:(Mem.functional mem);
      replies = Hashtbl.create 7;
    }
  in
  {
    config;
    engine;
    mem;
    cpes =
      Array.init config.Config.mesh_rows (fun r ->
          Array.init config.Config.mesh_cols (fun c -> mk_cpe r c));
    dma =
      Engine.new_channel engine ~bw_bytes_per_s:config.Config.mem_bw_bytes_per_s
        ~latency_s:config.Config.dma_latency_s;
    row_links =
      Array.init config.Config.mesh_rows (fun _ ->
          Engine.new_channel engine
            ~bw_bytes_per_s:config.Config.rma_bw_bytes_per_s
            ~latency_s:config.Config.rma_latency_s);
    col_links =
      Array.init config.Config.mesh_cols (fun _ ->
          Engine.new_channel engine
            ~bw_bytes_per_s:config.Config.rma_bw_bytes_per_s
            ~latency_s:config.Config.rma_latency_s);
    barrier =
      Engine.new_barrier engine
        ~parties:(config.Config.mesh_rows * config.Config.mesh_cols);
    trace;
    faults;
    reply_rma = Hashtbl.create 16;
    m_wait_dma =
      Option.map
        (fun r ->
          Sw_obs.Metrics.histogram r ~labels:[ ("level", "dma") ]
            "sim.reply_wait_seconds")
        (Sw_obs.Metrics.current ());
    m_wait_rma =
      Option.map
        (fun r ->
          Sw_obs.Metrics.histogram r ~labels:[ ("level", "rma") ]
            "sim.reply_wait_seconds")
        (Sw_obs.Metrics.current ());
  }

(* Zero-duration events (an instantaneously satisfied wait, a degenerate
   transfer) are recorded too: dropping them would hide exactly the
   instants a forensic trace needs. [Trace.instant] marks them. *)
let trace_event t (cpe : cpe) kind ~start ~finish =
  match t.trace with
  | Some tr when finish >= start ->
      Trace.record tr
        { Trace.rid = cpe.rid; cid = cpe.cid; kind; start; finish }
  | Some _ | None -> ()

let cpe t ~rid ~cid = t.cpes.(rid).(cid)

let iter_cpes t f = Array.iter (fun row -> Array.iter f row) t.cpes

let alloc_buffers t decls =
  iter_cpes t (fun c ->
      List.iter
        (fun (d : Sw_ast.Ast.spm_decl) ->
          Spm.alloc c.spm d.Sw_ast.Ast.buf_name ~rows:d.Sw_ast.Ast.rows ~cols:d.Sw_ast.Ast.cols
            ~copies:d.Sw_ast.Ast.copies)
        decls)

let alloc_replies t names =
  iter_cpes t (fun c ->
      List.iter
        (fun name ->
          if not (Hashtbl.mem c.replies name) then
            Hashtbl.add c.replies name
              [|
                Engine.new_counter ~name:(name ^ "[0]") t.engine;
                Engine.new_counter ~name:(name ^ "[1]") t.engine;
              |])
        names)

let races t =
  let acc = ref [] in
  iter_cpes t (fun c ->
      List.iter
        (fun conflict ->
          acc := { Error.rid = c.rid; cid = c.cid; conflict } :: !acc)
        (Spm.races c.spm));
  List.sort Error.compare_race !acc

let reply_counter c ~reply ~rcopy =
  match Hashtbl.find_opt c.replies reply with
  | Some arr -> arr.(rcopy land 1)
  | None ->
      raise
        (Error.Sim_error (Error.Invalid ("Cluster: unknown reply counter " ^ reply)))

(* Bounds-check a rectangle of main memory in either mode, and copy it to
   or from an SPM tile when the memory holds data. *)
let copy_rect t ~to_spm ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~spm
    ~buf ~copy =
  let base = Mem.offset t.mem array_name ?batch ~row:row_lo ~col:col_lo () in
  ignore
    (Mem.offset t.mem array_name ?batch ~row:(row_lo + rows - 1)
       ~col:(col_lo + cols - 1) ());
  if Mem.functional t.mem then begin
    let data = Mem.data t.mem array_name in
    let stride = Mem.row_len t.mem array_name in
    let tile = Spm.tile spm buf ~copy in
    for r = 0 to rows - 1 do
      let src = base + (r * stride) and dst = r * cols in
      if to_spm then Array.blit data src tile dst cols
      else Array.blit tile dst data src cols
    done
  end

(* Reply increments pass through the fault plan: they can arrive late, be
   re-delivered after a bounded delay (a dropped-then-recovered interrupt),
   or be lost for good — in which case the waiter either deadlocks (with
   forensics) or times out into the interpreter's retry path. *)
let deliver_increment t counter =
  match t.faults with
  | None -> Engine.counter_incr counter
  | Some f -> (
      match Fault.reply_disposition f with
      | Fault.Deliver -> Engine.counter_incr counter
      | Fault.Delay d ->
          Engine.schedule t.engine ~after:d (fun () -> Engine.counter_incr counter)
      | Fault.Drop { redeliver_after } ->
          Engine.schedule t.engine ~after:redeliver_after (fun () ->
              Engine.counter_incr counter)
      | Fault.Drop_forever -> ())

(* SPM soft error: corrupt one element of a tile that was just written,
   before any fiber can read it (functional mode only). *)
let maybe_flip t spm ~buf ~copy ~elems =
  match t.faults with
  | Some f when Mem.functional t.mem -> (
      match Fault.flip f ~elems with
      | Some (index, delta) -> Spm.corrupt spm buf ~copy ~index ~delta
      | None -> ())
  | Some _ | None -> ()

let dma_message t c ~put ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~buf
    ~copy ~reply ~rcopy =
  let counter = reply_counter c ~reply ~rcopy in
  Engine.counter_reset counter;
  Hashtbl.replace t.reply_rma reply false;
  let bytes = 8 * rows * cols in
  let spm = c.spm in
  let start_finish = ref (0.0, 0.0) in
  let interval =
    Engine.transfer ?faults:t.faults t.dma ~bytes ~on_complete:(fun () ->
        let start, finish = !start_finish in
        if put then Spm.note_read spm buf ~copy ~start ~finish
        else Spm.note_write spm buf ~copy ~start ~finish;
        copy_rect t ~to_spm:(not put) ~array_name ~batch ~row_lo ~col_lo
          ~rows ~cols ~spm ~buf ~copy;
        if not put then maybe_flip t spm ~buf ~copy ~elems:(rows * cols);
        deliver_increment t counter)
  in
  start_finish := interval;
  let start, finish = interval in
  trace_event t c (Trace.Dma { bytes; put }) ~start ~finish

let dma_get t c ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~buf ~copy
    ~reply ~rcopy =
  dma_message t c ~put:false ~array_name ~batch ~row_lo ~col_lo ~rows ~cols
    ~buf ~copy ~reply ~rcopy

let dma_put t c ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~buf ~copy
    ~reply ~rcopy =
  dma_message t c ~put:true ~array_name ~batch ~row_lo ~col_lo ~rows ~cols
    ~buf ~copy ~reply ~rcopy

let rma_bcast t c ~dir ~src ~dst ~rows ~cols ~root ~reply_s ~reply_r ~rcopy =
  let src_buf, src_copy = src and dst_buf, dst_copy = dst in
  let my_coord = match dir with `Row -> c.cid | `Col -> c.rid in
  let send_counter = reply_counter c ~reply:reply_s ~rcopy in
  let recv_counter = reply_counter c ~reply:reply_r ~rcopy in
  Engine.counter_reset send_counter;
  Engine.counter_reset recv_counter;
  Hashtbl.replace t.reply_rma reply_s true;
  Hashtbl.replace t.reply_rma reply_r true;
  if my_coord <> root then
    (* this CPE sends nothing; its send counter is trivially satisfied *)
    Engine.counter_incr send_counter
  else begin
    let peers =
      match dir with
      | `Row -> Array.to_list (Array.map (fun col -> col) t.cpes.(c.rid))
      | `Col -> Array.to_list (Array.map (fun row -> row.(c.cid)) t.cpes)
    in
    let link =
      match dir with `Row -> t.row_links.(c.rid) | `Col -> t.col_links.(c.cid)
    in
    let bytes = 8 * rows * cols in
    let start_finish = ref (0.0, 0.0) in
    let interval =
      Engine.transfer ?faults:t.faults link ~bytes ~on_complete:(fun () ->
          let start, finish = !start_finish in
          Spm.note_read c.spm src_buf ~copy:src_copy ~start ~finish;
          List.iter
            (fun (peer : cpe) ->
              Spm.note_write peer.spm dst_buf ~copy:dst_copy ~start ~finish;
              if Mem.functional t.mem then begin
                let s = Spm.tile c.spm src_buf ~copy:src_copy in
                let d = Spm.tile peer.spm dst_buf ~copy:dst_copy in
                Array.blit s 0 d 0 (rows * cols)
              end;
              maybe_flip t peer.spm ~buf:dst_buf ~copy:dst_copy
                ~elems:(rows * cols);
              deliver_increment t (reply_counter peer ~reply:reply_r ~rcopy))
            peers;
          deliver_increment t send_counter)
    in
    start_finish := interval;
    let start, finish = interval in
    trace_event t c (Trace.Rma { bytes; sender = true }) ~start ~finish
  end

let reply_is_rma t reply =
  match Hashtbl.find_opt t.reply_rma reply with Some b -> b | None -> false

let note_wait t ~rma ~start ~finish =
  match (if rma then t.m_wait_rma else t.m_wait_dma) with
  | None -> ()
  | Some h -> Sw_obs.Metrics.observe h (finish -. start)

let wait_reply t c ~reply ~rcopy =
  let start = Engine.now t.engine in
  Engine.await (reply_counter c ~reply ~rcopy) 1;
  let finish = Engine.now t.engine in
  let rma = reply_is_rma t reply in
  note_wait t ~rma ~start ~finish;
  trace_event t c (Trace.Wait_reply { reply; rma }) ~start ~finish

(* Like [wait_reply] but gives up after [timeout] simulated seconds; the
   interpreter's retry policy builds on this. Returns [true] when the reply
   arrived, [false] on timeout (the event is still traced either way so the
   forensic timeline shows the stalled wait). *)
let wait_reply_deadline t c ~reply ~rcopy ~timeout =
  let start = Engine.now t.engine in
  let ok = Engine.await_deadline (reply_counter c ~reply ~rcopy) 1 ~timeout in
  let finish = Engine.now t.engine in
  let rma = reply_is_rma t reply in
  note_wait t ~rma ~start ~finish;
  trace_event t c (Trace.Wait_reply { reply; rma }) ~start ~finish;
  ok

let sync t (c : cpe) =
  let start = Engine.now t.engine in
  Engine.barrier_wait t.barrier;
  Engine.delay t.config.Config.sync_latency_s;
  trace_event t c Trace.Barrier ~start ~finish:(Engine.now t.engine)

let kernel t c ~c:(cb, cc) ~a:(ab, ac) ~b:(bb, bc) ~m ~n ~k ~alpha ~accumulate
    ~ta ~tb ~style =
  let dur = Config.micro_kernel_seconds t.config ~style ~m ~n ~k in
  (* straggler CPEs run their compute slower (thermal throttling / a busy
     neighbour on the real mesh); membership is a pure function of the fault
     seed and the CPE coordinates, so it is program-independent *)
  let dur =
    match t.faults with
    | None -> dur
    | Some f -> dur *. Fault.kernel_slowdown f ~rid:c.rid ~cid:c.cid
  in
  let start = Engine.now t.engine in
  let finish = start +. dur in
  Spm.note_read c.spm ab ~copy:ac ~start ~finish;
  Spm.note_read c.spm bb ~copy:bc ~start ~finish;
  (* the kernel both reads and writes its C tile; a single write note keeps
     the read-modify-write from racing against itself while still clashing
     with any overlapping DMA or RMA window (note_write checks both the last
     read and the last write) *)
  Spm.note_write c.spm cb ~copy:cc ~start ~finish;
  if Mem.functional t.mem then
    Sw_kernels.Micro.dgemm_tile_t ~ta ~tb ~m ~n ~k ~alpha ~accumulate
      ~a:(Spm.tile c.spm ab ~copy:ac)
      ~ao:0
      ~b:(Spm.tile c.spm bb ~copy:bc)
      ~bo:0
      ~c:(Spm.tile c.spm cb ~copy:cc)
      ~co:0;
  trace_event t c Trace.Kernel ~start ~finish;
  Engine.delay dur

let spm_map t c ~buf:(buf, copy) ~rows ~cols ~fn =
  let elems = rows * cols in
  let dur =
    float_of_int elems *. t.config.Config.ew_cpe_cycles_per_elem
    /. t.config.Config.cpe_freq_hz
  in
  let start = Engine.now t.engine in
  let finish = start +. dur in
  (* in-place read-modify-write: a single write note, as in [kernel] *)
  Spm.note_write c.spm buf ~copy ~start ~finish;
  if Mem.functional t.mem then
    Sw_kernels.Elementwise.apply fn (Spm.tile c.spm buf ~copy) ~off:0 ~len:elems;
  trace_event t c Trace.Spm_op ~start ~finish;
  Engine.delay dur
