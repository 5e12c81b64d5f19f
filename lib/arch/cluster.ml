type reply = { name : string; slot : int; parity : Engine.counter array }

type cpe = {
  rid : int;
  cid : int;
  fid : int;
  spm : Spm.t;
  mutable buffers : Spm.buffer array;
  mutable replies : reply array;
}

(* The typed completion of a transfer in flight, kept in the slot its
   completion event carries. [buf] is the issuer's SPM buffer (a DMA's
   tile, a broadcast's source). *)
type completion =
  | Dma of {
      d : Sw_tree.Comm.dma;
      put : bool;
      issuer : cpe;
      buf : int;
      copy : int;
      reply : reply;
      rcopy : int;
      array : Mem.handle;
      batch : int;
      row_lo : int;
      col_lo : int;
      start : float;
    }
  | Bcast of {
      issuer : cpe;
      buf : int;
      copy : int;
      reply_s : reply;
      rcopy : int;
      elems : int;
      peers : cpe array;
      dst : int;
      dst_copy : int;
      recv : int;  (* the receivers' reply slot *)
      start : float;
    }

type t = {
  config : Config.t;
  engine : Engine.t;
  functional : bool;
  cpes : cpe array array;
  columns : cpe array array;
  by_fid : cpe array;
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
  (* with a trace or metrics: when each CPE's current wait or sync began *)
  observed : bool;
  marks : float array;
  (* in-flight completions by slot: slots below [nslots] are in use
     unless on the stack of the first [nfree] of [free]; a free slot keeps
     its last completion until reused *)
  mutable pending : completion array;
  mutable free : int array;
  mutable nfree : int;
  mutable nslots : int;
}

let create ?trace ?faults ~config ~mem () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e ->
      raise
        (Error.Sim_error
           (Error.Invalid ("Cluster.create: " ^ Config.error_to_string e))));
  let engine = Engine.create () in
  let functional = Mem.functional mem in
  let rows = config.Config.mesh_rows and cols = config.Config.mesh_cols in
  let cpes =
    Array.init rows (fun rid ->
        Array.init cols (fun cid ->
            let label = Printf.sprintf "CPE(%d,%d)" rid cid in
            let fid = Engine.spawn ~label engine in
            let spm = Spm.create ~capacity_bytes:config.Config.spm_bytes ~functional in
            { rid; cid; fid; spm; buffers = [||]; replies = [||] }))
  in
  let link () =
    Engine.new_channel ~bw_bytes_per_s:config.Config.rma_bw_bytes_per_s
      ~latency_s:config.Config.rma_latency_s
  in
  let wait_histogram level =
    Option.map
      (fun r ->
        Sw_obs.Metrics.histogram r ~labels:[ ("level", level) ]
          "sim.reply_wait_seconds")
      (Sw_obs.Metrics.current ())
  in
  let m_wait_dma = wait_histogram "dma" in
  {
    config;
    engine;
    functional;
    cpes;
    columns = Array.init cols (fun c -> Array.map (fun row -> row.(c)) cpes);
    by_fid = Array.concat (Array.to_list cpes);
    dma =
      Engine.new_channel ~bw_bytes_per_s:config.Config.mem_bw_bytes_per_s
        ~latency_s:config.Config.dma_latency_s;
    row_links = Array.init rows (fun _ -> link ());
    col_links = Array.init cols (fun _ -> link ());
    barrier = Engine.new_barrier engine ~parties:(rows * cols);
    trace;
    faults;
    reply_rma = [||];
    m_wait_dma;
    m_wait_rma = wait_histogram "rma";
    observed = trace <> None || m_wait_dma <> None;
    marks = Array.make (rows * cols) 0.0;
    pending = [||];
    free = [||];
    nfree = 0;
    nslots = 0;
  }

let engine t = t.engine
let cpes t = t.by_fid

(* Zero-duration events (an instantaneously satisfied wait, a degenerate
   transfer) are recorded too: dropping them would hide exactly the
   instants a forensic trace needs. [Trace.instant] marks them. Callers
   match on [t.trace] first, so a run without a trace builds no event. *)
let record tr (cpe : cpe) kind ~start ~finish =
  if finish >= start then
    Trace.record tr { Trace.rid = cpe.rid; cid = cpe.cid; kind; start; finish }

(* For the constant kinds, which cost no allocation to name. *)
let[@inline] trace t c kind ~start ~finish =
  match t.trace with None -> () | Some tr -> record tr c kind ~start ~finish

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
      let made = Hashtbl.create 8 in
      let reply slot name =
        let counter p =
          Engine.new_counter ~name:(Printf.sprintf "%s[%d]" name p) t.engine
        in
        if not (Hashtbl.mem made name) then
          Hashtbl.add made name { name; slot; parity = Array.init 2 counter };
        Hashtbl.find made name
      in
      c.replies <- Array.of_list (List.mapi reply names))

let races t =
  let acc = ref [] in
  iter_cpes t (fun c ->
      List.iter
        (fun conflict ->
          acc := { Error.rid = c.rid; cid = c.cid; conflict } :: !acc)
        (Spm.races c.spm));
  List.sort Error.compare_race !acc

let counter reply ~rcopy = reply.parity.(rcopy land 1)

(* Issue a transfer on [ch] under a free completion slot, the most
   recently freed one first, and return the slot for {!park}. *)
let issue t ch ~bytes =
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      t.nslots <- t.nslots + 1;
      t.nslots - 1
    end
  in
  Engine.transfer ?faults:t.faults t.engine ch ~bytes ~event:slot;
  slot

(* Keep [c] in [slot] until it completes, doubling the slots when [slot]
   is a fresh one past their end. *)
let park t slot c =
  let n = Array.length t.pending in
  if slot = n then begin
    t.pending <- Array.append t.pending (Array.make (max 8 n) c);
    t.free <- Array.append t.free (Array.make (max 8 n) 0)
  end;
  t.pending.(slot) <- c

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
      | Fault.Delay after | Fault.Drop { redeliver_after = after } ->
          Engine.incr_after t.engine counter ~after
      | Fault.Drop_forever -> ())

(* SPM soft error: corrupt one element of a tile that was just written,
   before any fiber can read it (functional mode only). *)
let maybe_flip t ~buf ~copy ~elems =
  match t.faults with
  | Some f when t.functional -> (
      match Fault.flip f ~elems with
      | Some (index, delta) -> Spm.corrupt buf ~copy ~index ~delta
      | None -> ())
  | Some _ | None -> ()

let complete t slot =
  let finish = Engine.now t.engine in
  let completion = t.pending.(slot) in
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  match completion with
  | Dma r ->
      (* bounds-check the rectangle of main memory in either mode, and move
         it when the memory holds data *)
      let buf = r.issuer.buffers.(r.buf) and copy = r.copy and h = r.array in
      let { Sw_tree.Comm.rows; cols; batch; _ } = r.d in
      if r.put then Spm.note_read buf ~copy ~start:r.start ~finish
      else Spm.note_write buf ~copy ~start:r.start ~finish;
      let offset = Mem.offset h ~batched:(Option.is_some batch) ~batch:r.batch in
      let base = offset ~row:r.row_lo ~col:r.col_lo in
      ignore (offset ~row:(r.row_lo + rows - 1) ~col:(r.col_lo + cols - 1));
      if t.functional then begin
        let stride = h.Mem.dims.(Array.length h.Mem.dims - 1) in
        let tile = Spm.tile buf ~copy in
        for i = 0 to rows - 1 do
          let src = base + (i * stride) and dst = i * cols in
          if r.put then Array.blit tile dst h.Mem.data src cols
          else Array.blit h.Mem.data src tile dst cols
        done
      end;
      if not r.put then maybe_flip t ~buf ~copy ~elems:(rows * cols);
      deliver_increment t (counter r.reply ~rcopy:r.rcopy)
  | Bcast
      { issuer; buf; copy; reply_s; rcopy; elems; peers; dst; dst_copy; recv; start }
    ->
      let src = issuer.buffers.(buf) in
      Spm.note_read src ~copy ~start ~finish;
      for i = 0 to Array.length peers - 1 do
        let peer = peers.(i) in
        let dst = peer.buffers.(dst) in
        Spm.note_write dst ~copy:dst_copy ~start ~finish;
        if t.functional then
          Array.blit (Spm.tile src ~copy) 0 (Spm.tile dst ~copy:dst_copy) 0 elems;
        maybe_flip t ~buf:dst ~copy:dst_copy ~elems;
        deliver_increment t (counter peer.replies.(recv) ~rcopy)
      done;
      deliver_increment t (counter reply_s ~rcopy)

let dma t c (d : Sw_tree.Comm.dma) ~put ~array ~batch ~row_lo ~col_lo ~buf ~copy
    ~reply ~rcopy =
  Engine.counter_reset (counter reply ~rcopy);
  t.reply_rma.(reply.slot) <- false;
  let bytes = 8 * d.Sw_tree.Comm.rows * d.Sw_tree.Comm.cols in
  let slot = issue t t.dma ~bytes in
  let start = t.dma.Engine.start in
  park t slot
    (Dma
       { d; put; issuer = c; buf; copy; reply; rcopy; array; batch; row_lo; col_lo;
         start });
  match t.trace with
  | None -> ()
  | Some tr ->
      record tr c (Trace.Dma { bytes; put }) ~start:t.dma.Engine.start
        ~finish:t.dma.Engine.finish

let rma_bcast t c (r : Sw_tree.Comm.rma) ~src ~src_copy ~dst ~dst_copy ~root
    ~reply_s ~reply_r ~rcopy =
  let { Sw_tree.Comm.dir; rows; cols; _ } = r in
  let send_counter = counter reply_s ~rcopy in
  Engine.counter_reset send_counter;
  Engine.counter_reset (counter reply_r ~rcopy);
  t.reply_rma.(reply_s.slot) <- true;
  t.reply_rma.(reply_r.slot) <- true;
  if (match dir with `Row -> c.cid | `Col -> c.rid) <> root then
    (* this CPE sends nothing; its send counter is trivially satisfied *)
    Engine.counter_incr send_counter
  else begin
    let row = dir = `Row in
    let peers = if row then t.cpes.(c.rid) else t.columns.(c.cid) in
    let link = if row then t.row_links.(c.rid) else t.col_links.(c.cid) in
    let bytes = 8 * rows * cols in
    let slot = issue t link ~bytes in
    let start = link.Engine.start in
    park t slot
      (Bcast
         { issuer = c; buf = src; copy = src_copy; reply_s; rcopy; peers; dst; dst_copy;
           elems = rows * cols; recv = reply_r.slot; start });
    match t.trace with
    | None -> ()
    | Some tr ->
        record tr c (Trace.Rma { bytes; sender = true })
          ~start:link.Engine.start ~finish:link.Engine.finish
  end

let mark t c = if t.observed then t.marks.(c.fid) <- Engine.now t.engine

let wait_done t c ~reply =
  if t.observed then begin
    let start = t.marks.(c.fid) and finish = Engine.now t.engine in
    let rma = t.reply_rma.(reply.slot) in
    (match if rma then t.m_wait_rma else t.m_wait_dma with
    | None -> ()
    | Some h -> Sw_obs.Metrics.observe h (finish -. start));
    match t.trace with
    | None -> ()
    | Some tr ->
        record tr c (Trace.Wait_reply { reply = reply.name; rma }) ~start
          ~finish
  end

let wait_reply ?timeout t c ~reply ~rcopy =
  mark t c;
  Engine.await ?timeout t.engine c.fid (counter reply ~rcopy) 1

let sync_arrive t c =
  mark t c;
  Engine.barrier_wait t.engine c.fid t.barrier

let sync_settle t c = Engine.delay t.engine c.fid t.config.Config.sync_latency_s

let sync_done t c =
  trace t c Trace.Barrier ~start:t.marks.(c.fid) ~finish:(Engine.now t.engine)

let kernel_seconds t (kern : Sw_tree.Comm.kernel) =
  let { Sw_tree.Comm.m; n; k; style; _ } = kern in
  let style = match style with Sw_tree.Comm.Asm -> `Asm | Sw_tree.Comm.Naive -> `Naive in
  Config.micro_kernel_seconds t.config ~style ~m ~n ~k

let kernel t c (kern : Sw_tree.Comm.kernel) ~seconds ~c:cb ~c_copy ~a ~a_copy ~b
    ~b_copy =
  let { Sw_tree.Comm.m; n; k; alpha; accumulate; ta; tb; _ } = kern in
  (* straggler CPEs run their compute slower (thermal throttling / a busy
     neighbour on the real mesh); membership is a pure function of the fault
     seed and the CPE coordinates, so it is program-independent *)
  let dur =
    match t.faults with
    | None -> seconds
    | Some f -> seconds *. Fault.kernel_slowdown f ~rid:c.rid ~cid:c.cid
  in
  let start = Engine.now t.engine in
  let finish = start +. dur in
  let cb = c.buffers.(cb) and ab = c.buffers.(a) and bb = c.buffers.(b) in
  Spm.note_read ab ~copy:a_copy ~start ~finish;
  Spm.note_read bb ~copy:b_copy ~start ~finish;
  (* the kernel both reads and writes its C tile; a single write note keeps
     the read-modify-write from racing against itself while still clashing
     with any overlapping DMA or RMA window (note_write checks both the last
     read and the last write) *)
  Spm.note_write cb ~copy:c_copy ~start ~finish;
  if t.functional then
    Sw_kernels.Micro.dgemm_tile_t ~ta ~tb ~m ~n ~k ~alpha ~accumulate
      ~a:(Spm.tile ab ~copy:a_copy) ~ao:0 ~b:(Spm.tile bb ~copy:b_copy) ~bo:0
      ~c:(Spm.tile cb ~copy:c_copy) ~co:0;
  trace t c Trace.Kernel ~start ~finish;
  Engine.delay t.engine c.fid dur

let spm_map_seconds t ~rows ~cols =
  float_of_int (rows * cols) *. t.config.Config.ew_cpe_cycles_per_elem
  /. t.config.Config.cpe_freq_hz

let spm_map t c ~seconds:dur ~buf ~copy ~rows ~cols ~fn =
  let elems = rows * cols in
  let start = Engine.now t.engine in
  let finish = start +. dur in
  let buf = c.buffers.(buf) in
  (* in-place read-modify-write: a single write note, as in [kernel] *)
  Spm.note_write buf ~copy ~start ~finish;
  if t.functional then
    Sw_kernels.Elementwise.apply fn (Spm.tile buf ~copy) ~off:0 ~len:elems;
  trace t c Trace.Spm_op ~start ~finish;
  Engine.delay t.engine c.fid dur
