type reply = { name : string; slot : int; parity : Engine.counter array }

type cpe = {
  rid : int;
  cid : int;
  spm : Spm.t;
  mutable buffers : Spm.buffer array;
  mutable replies : reply array;
}

type t = {
  config : Config.t;
  engine : Engine.t;
  mem : Mem.t;
  cpes : cpe array array;
  columns : cpe array array;
  dma : Engine.channel;
  row_links : Engine.channel array;
  col_links : Engine.channel array;
  barrier : Engine.barrier;
  trace : Trace.t option;
  faults : Fault.t option;
  (* which primitive last armed each reply counter, by slot: true = RMA
     broadcast, false = DMA. Lets wait events attribute their exposed
     latency to a pipeline level without hard-coding reply names. *)
  mutable reply_rma : bool array;
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
      buffers = [||];
      replies = [||];
    }
  in
  let cpes =
    Array.init config.Config.mesh_rows (fun r ->
        Array.init config.Config.mesh_cols (fun c -> mk_cpe r c))
  in
  {
    config;
    engine;
    mem;
    cpes;
    columns =
      Array.init config.Config.mesh_cols (fun c ->
          Array.map (fun row -> row.(c)) cpes);
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
    reply_rma = [||];
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
      c.buffers <-
        Array.of_list
          (List.map
             (fun (d : Sw_ast.Ast.spm_decl) ->
               Spm.alloc c.spm d.Sw_ast.Ast.buf_name ~rows:d.Sw_ast.Ast.rows
                 ~cols:d.Sw_ast.Ast.cols ~copies:d.Sw_ast.Ast.copies)
             decls))

(* A name listed twice shares the counters (and the slot) of its first
   occurrence. *)
let alloc_replies t names =
  t.reply_rma <- Array.make (List.length names) false;
  iter_cpes t (fun c ->
      let made = ref [] in
      c.replies <-
        Array.of_list
          (List.mapi
             (fun slot name ->
               match List.assoc_opt name !made with
               | Some r -> r
               | None ->
                   let r =
                     {
                       name;
                       slot;
                       parity =
                         [|
                           Engine.new_counter ~name:(name ^ "[0]") t.engine;
                           Engine.new_counter ~name:(name ^ "[1]") t.engine;
                         |];
                     }
                   in
                   made := (name, r) :: !made;
                   r)
             names))

let races t =
  let acc = ref [] in
  iter_cpes t (fun c ->
      List.iter
        (fun conflict ->
          acc := { Error.rid = c.rid; cid = c.cid; conflict } :: !acc)
        (Spm.races c.spm));
  List.sort Error.compare_race !acc

let counter reply ~rcopy = reply.parity.(rcopy land 1)

(* Bounds-check a rectangle of main memory in either mode, and copy it to
   or from an SPM tile when the memory holds data. *)
let copy_rect t ~to_spm ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~buf
    ~copy =
  let base = Mem.offset t.mem array_name ?batch ~row:row_lo ~col:col_lo () in
  ignore
    (Mem.offset t.mem array_name ?batch ~row:(row_lo + rows - 1)
       ~col:(col_lo + cols - 1) ());
  if Mem.functional t.mem then begin
    let data = Mem.data t.mem array_name in
    let stride = Mem.row_len t.mem array_name in
    let tile = Spm.tile buf ~copy in
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
let maybe_flip t ~buf ~copy ~elems =
  match t.faults with
  | Some f when Mem.functional t.mem -> (
      match Fault.flip f ~elems with
      | Some (index, delta) -> Spm.corrupt buf ~copy ~index ~delta
      | None -> ())
  | Some _ | None -> ()

let dma_message t c ~put ~array_name ~batch ~row_lo ~col_lo ~rows ~cols ~buf
    ~copy ~reply ~rcopy =
  let counter = counter reply ~rcopy in
  Engine.counter_reset counter;
  t.reply_rma.(reply.slot) <- false;
  let bytes = 8 * rows * cols in
  let start_finish = ref (0.0, 0.0) in
  let interval =
    Engine.transfer ?faults:t.faults t.dma ~bytes ~on_complete:(fun () ->
        let start, finish = !start_finish in
        if put then Spm.note_read buf ~copy ~start ~finish
        else Spm.note_write buf ~copy ~start ~finish;
        copy_rect t ~to_spm:(not put) ~array_name ~batch ~row_lo ~col_lo
          ~rows ~cols ~buf ~copy;
        if not put then maybe_flip t ~buf ~copy ~elems:(rows * cols);
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
  let src, src_copy = src and dst, dst_copy = dst in
  let my_coord = match dir with `Row -> c.cid | `Col -> c.rid in
  let send_counter = counter reply_s ~rcopy in
  let recv_counter = counter reply_r ~rcopy in
  Engine.counter_reset send_counter;
  Engine.counter_reset recv_counter;
  t.reply_rma.(reply_s.slot) <- true;
  t.reply_rma.(reply_r.slot) <- true;
  if my_coord <> root then
    (* this CPE sends nothing; its send counter is trivially satisfied *)
    Engine.counter_incr send_counter
  else begin
    let peers =
      match dir with `Row -> t.cpes.(c.rid) | `Col -> t.columns.(c.cid)
    in
    let dst_index = Spm.index dst in
    let link =
      match dir with `Row -> t.row_links.(c.rid) | `Col -> t.col_links.(c.cid)
    in
    let bytes = 8 * rows * cols in
    let start_finish = ref (0.0, 0.0) in
    let interval =
      Engine.transfer ?faults:t.faults link ~bytes ~on_complete:(fun () ->
          let start, finish = !start_finish in
          Spm.note_read src ~copy:src_copy ~start ~finish;
          Array.iter
            (fun (peer : cpe) ->
              let dst = peer.buffers.(dst_index) in
              Spm.note_write dst ~copy:dst_copy ~start ~finish;
              if Mem.functional t.mem then begin
                let s = Spm.tile src ~copy:src_copy in
                let d = Spm.tile dst ~copy:dst_copy in
                Array.blit s 0 d 0 (rows * cols)
              end;
              maybe_flip t ~buf:dst ~copy:dst_copy ~elems:(rows * cols);
              deliver_increment t
                (counter peer.replies.(reply_r.slot) ~rcopy))
            peers;
          deliver_increment t send_counter)
    in
    start_finish := interval;
    let start, finish = interval in
    trace_event t c (Trace.Rma { bytes; sender = true }) ~start ~finish
  end

let note_wait t ~rma ~start ~finish =
  match (if rma then t.m_wait_rma else t.m_wait_dma) with
  | None -> ()
  | Some h -> Sw_obs.Metrics.observe h (finish -. start)

let wait_reply t c ~reply ~rcopy =
  let start = Engine.now t.engine in
  Engine.await (counter reply ~rcopy) 1;
  let finish = Engine.now t.engine in
  let rma = t.reply_rma.(reply.slot) in
  note_wait t ~rma ~start ~finish;
  trace_event t c (Trace.Wait_reply { reply = reply.name; rma }) ~start ~finish

(* Like [wait_reply] but gives up after [timeout] simulated seconds; the
   interpreter's retry policy builds on this. Returns [true] when the reply
   arrived, [false] on timeout (the event is still traced either way so the
   forensic timeline shows the stalled wait). *)
let wait_reply_deadline t c ~reply ~rcopy ~timeout =
  let start = Engine.now t.engine in
  let ok = Engine.await_deadline (counter reply ~rcopy) 1 ~timeout in
  let finish = Engine.now t.engine in
  let rma = t.reply_rma.(reply.slot) in
  note_wait t ~rma ~start ~finish;
  trace_event t c (Trace.Wait_reply { reply = reply.name; rma }) ~start ~finish;
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
  Spm.note_read ab ~copy:ac ~start ~finish;
  Spm.note_read bb ~copy:bc ~start ~finish;
  (* the kernel both reads and writes its C tile; a single write note keeps
     the read-modify-write from racing against itself while still clashing
     with any overlapping DMA or RMA window (note_write checks both the last
     read and the last write) *)
  Spm.note_write cb ~copy:cc ~start ~finish;
  if Mem.functional t.mem then
    Sw_kernels.Micro.dgemm_tile_t ~ta ~tb ~m ~n ~k ~alpha ~accumulate
      ~a:(Spm.tile ab ~copy:ac)
      ~ao:0
      ~b:(Spm.tile bb ~copy:bc)
      ~bo:0
      ~c:(Spm.tile cb ~copy:cc)
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
  Spm.note_write buf ~copy ~start ~finish;
  if Mem.functional t.mem then
    Sw_kernels.Elementwise.apply fn (Spm.tile buf ~copy) ~off:0 ~len:elems;
  trace_event t c Trace.Spm_op ~start ~finish;
  Engine.delay dur
