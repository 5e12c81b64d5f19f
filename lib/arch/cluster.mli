(** One SW26010Pro cluster: the 8x8 CPE mesh with its SPMs, the shared
    memory controller (DMA), the row/column RMA links and the mesh barrier.

    The functions in the "athread primitives" section implement the exact
    semantics of the interfaces of §4–§5 of the paper and must be called
    from within a CPE fiber (see {!Interp}): non-blocking issues return
    immediately, completions increment reply counters, and
    {!wait_reply}/{!sync} block the calling fiber.

    Every data movement and every tile read is stamped with its simulated
    time interval; overlapping write/read windows on the same SPM buffer
    copy are recorded as races (see {!Spm}) — this is what double buffering
    (§6.3) exists to prevent, and breaking it is observable in tests. *)

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
  reply_rma : (string, bool) Hashtbl.t;
      (** which primitive last armed each reply counter name ([true] =
          RMA broadcast, [false] = DMA): wait events use it to attribute
          exposed latency to a pipeline level *)
  m_wait_dma : Sw_obs.Metrics.histogram option;
      (** reply-wait latency instruments, resolved once at {!create} from
          the ambient {!Sw_obs.Metrics} registry; [None] when metrics are
          off, making every observation a single match *)
  m_wait_rma : Sw_obs.Metrics.histogram option;
}

val create :
  ?trace:Trace.t -> ?faults:Fault.t -> config:Config.t -> mem:Mem.t -> unit -> t
(** The run moves data iff [mem] is functional ({!Mem.create}); every SPM
    takes the same mode. With [?faults], every transfer, reply delivery
    and kernel launch is perturbed by the plan (see {!Fault}); without it
    the fault hooks are compiled-away [None] branches and timings are
    bit-identical to a fault-free build. *)

val cpe : t -> rid:int -> cid:int -> cpe
val iter_cpes : t -> (cpe -> unit) -> unit

val alloc_buffers : t -> Sw_ast.Ast.spm_decl list -> unit
(** Allocate the same buffers on every CPE; raises {!Error.Sim_error}
    ([Overflow]) on SPM overflow. *)

val alloc_replies : t -> string list -> unit
(** Create a double reply counter (two parity slots) per name per CPE. *)

val races : t -> Error.race list
(** All races detected on any CPE, sorted by (rid, cid, buffer, copy,
    time) so reports are deterministic. *)

(** {2 Athread primitives} (call from a CPE fiber) *)

val dma_get :
  t -> cpe -> array_name:string -> batch:int option -> row_lo:int ->
  col_lo:int -> rows:int -> cols:int -> buf:string -> copy:int ->
  reply:string -> rcopy:int -> unit

val dma_put :
  t -> cpe -> array_name:string -> batch:int option -> row_lo:int ->
  col_lo:int -> rows:int -> cols:int -> buf:string -> copy:int ->
  reply:string -> rcopy:int -> unit

val rma_bcast :
  t -> cpe -> dir:[ `Row | `Col ] -> src:string * int -> dst:string * int ->
  rows:int -> cols:int -> root:int -> reply_s:string -> reply_r:string ->
  rcopy:int -> unit
(** SPMD broadcast: every CPE of the mesh calls this; the one whose
    row/column coordinate equals [root] is the sender and occupies the
    link. Non-senders only arm their receive counter; the sender's
    completion increments [reply_r] on every CPE of its row/column and
    [reply_s] on itself (non-senders' [reply_s] is satisfied at issue, as
    they send nothing). *)

val wait_reply : t -> cpe -> reply:string -> rcopy:int -> unit

val wait_reply_deadline :
  t -> cpe -> reply:string -> rcopy:int -> timeout:float -> bool
(** [wait_reply] with a simulated-time deadline: [false] means the reply
    did not arrive within [timeout] seconds and the caller should retry or
    degrade (see {!Interp} retry policy). *)

val sync : t -> cpe -> unit
val kernel : t -> cpe -> c:string * int -> a:string * int -> b:string * int ->
  m:int -> n:int -> k:int -> alpha:float -> accumulate:bool ->
  ta:bool -> tb:bool -> style:[ `Asm | `Naive ] -> unit
val spm_map : t -> cpe -> buf:string * int -> rows:int -> cols:int -> fn:string -> unit
