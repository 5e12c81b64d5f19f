(** One SW26010Pro cluster: the 8x8 CPE mesh with its SPMs, the shared
    memory controller (DMA), the row/column RMA links and the mesh barrier.

    Each CPE is an {!Engine} fiber, spawned by {!create} in row-major order
    and labelled ["CPE(r,c)"]. The athread primitives implement the
    interfaces of §4–§5 of the paper for the CPE they are given (see
    {!Interp}); the blocking ones return [true] when they suspended its
    fiber. Every data movement and tile read is stamped with its simulated
    interval, and overlapping write/read windows on one SPM buffer copy
    are recorded as races (see {!Spm}), which double buffering (§6.3)
    exists to prevent.

    The primitives take handles, not names: {!alloc_buffers} and
    {!alloc_replies} fill each CPE's [buffers] and [replies], indexed by
    each name's position in the declaration list, and a buffer argument is
    such a position. Handles keep their names, so traces, race reports and
    deadlock diagnoses print what a lookup by name would. *)

type reply = {
  name : string;
  slot : int;  (** position of the name's first occurrence; the same on every CPE *)
  parity : Engine.counter array;
      (** the two parity slots, counters named ["<name>[0]"] and ["<name>[1]"] *)
}
(** One CPE's double reply counter. *)

type cpe = {
  rid : int;
  cid : int;
  fid : int;  (** the CPE's fiber *)
  spm : Spm.t;
  mutable buffers : Spm.buffer array;  (** set by {!alloc_buffers} *)
  mutable replies : reply array;  (** set by {!alloc_replies} *)
}

type t

val create :
  ?trace:Trace.t -> ?faults:Fault.t -> config:Config.t -> mem:Mem.t -> unit -> t
(** The run moves data iff [mem] is functional ({!Mem.create}); every SPM
    takes the same mode. With [?faults], every transfer, reply delivery
    and kernel launch is perturbed by the plan (see {!Fault}); without it
    the fault hooks are compiled-away [None] branches and timings are
    bit-identical to a fault-free build. *)

val engine : t -> Engine.t

val cpes : t -> cpe array
(** Every CPE, by fiber id ([rid * mesh_cols + cid]). *)

val alloc_buffers : t -> Sw_ast.Ast.spm_decl list -> unit
(** Allocate the same buffers on every CPE; raises {!Error.Sim_error}
    ([Invalid] or [Overflow], see {!Spm.alloc}). *)

val alloc_replies : t -> string list -> unit
(** A double reply counter per name per CPE; a repeated name shares its
    first occurrence's counters. *)

val races : t -> Error.race list
(** All races detected on any CPE, sorted by (rid, cid, buffer, copy,
    time) so reports are deterministic. *)

val complete : t -> int -> unit
(** The [event] handler for {!Engine.run}: complete the DMA or RMA
    transfer (note its spans, move its data, deliver its replies). *)

(** {2 Athread primitives} *)

(** Each takes the op's payload and the operands it resolved and
    evaluated: handles, copies, coordinates; [rcopy] picks a reply's
    parity slot. *)

val dma :
  t -> cpe -> Sw_tree.Comm.dma -> put:bool -> array:Mem.handle ->
  batch:int -> row_lo:int -> col_lo:int -> buf:int -> copy:int -> reply:reply ->
  rcopy:int -> unit
(** A DMA get ([put = false]) or put of the payload's rectangle of
    [array], bounds-checked and moved when it completes; [batch] is read
    only when the payload has one. *)

val rma_bcast :
  t -> cpe -> Sw_tree.Comm.rma -> src:int -> src_copy:int -> dst:int ->
  dst_copy:int -> root:int -> reply_s:reply -> reply_r:reply -> rcopy:int ->
  unit
(** SPMD broadcast: every CPE of the mesh calls this; the one whose
    row/column coordinate equals [root] is the sender and occupies the
    link. Its completion increments [reply_r] on every CPE of its
    row/column and [reply_s] on itself; a non-sender's [reply_s] is
    satisfied at issue. *)

val wait_reply : ?timeout:float -> t -> cpe -> reply:reply -> rcopy:int -> bool
(** Start waiting for the reply; [true] when the fiber parked. With
    [timeout], the fiber is resumed after that many seconds if the reply
    has not arrived ({!Engine.timed_out}), and the caller retries or
    degrades. Once the wait is over, satisfied or not, {!wait_done}
    records it in metrics and trace. *)

val wait_done : t -> cpe -> reply:reply -> unit

val sync_arrive : t -> cpe -> bool
(** The mesh barrier; [true] when the fiber parked. Then {!sync_settle},
    the barrier's latency ([true] when it delays the fiber), then
    {!sync_done}, which traces the whole sync. *)

val sync_settle : t -> cpe -> bool
val sync_done : t -> cpe -> unit

val kernel_seconds : t -> Sw_tree.Comm.kernel -> float
(** The micro kernel's duration on this cluster's machine, without faults:
    priced once, when the op is lowered. *)

val kernel :
  t -> cpe -> Sw_tree.Comm.kernel -> seconds:float -> c:int -> c_copy:int ->
  a:int -> a_copy:int -> b:int -> b_copy:int -> bool
(** Run the micro kernel for [seconds] ({!kernel_seconds}), slowed on a
    straggler CPE under a fault plan; [true] when its duration delays the
    fiber. *)

val spm_map_seconds : t -> rows:int -> cols:int -> float
(** The duration of an element-wise pass over a [rows] x [cols] tile. *)

val spm_map :
  t -> cpe -> seconds:float -> buf:int -> copy:int -> rows:int -> cols:int ->
  fn:string -> bool
(** An element-wise pass over a tile lasting [seconds]
    ({!spm_map_seconds}); [true] when it delays the fiber. *)
