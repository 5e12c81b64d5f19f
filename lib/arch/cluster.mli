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
    (§6.3) exists to prevent, and breaking it is observable in tests.

    The primitives take handles, not names: {!alloc_buffers} and
    {!alloc_replies} fill each CPE's [buffers] and [replies] arrays, indexed
    by each name's position in the declaration list, and a caller (the
    {!Interp} lowering) resolves a name to its position once per program.
    Handles keep their names, so traces, race reports and deadlock
    diagnoses print the same text they would for a lookup by name. *)

type reply = {
  name : string;
  slot : int;
      (** position of the name's first occurrence in the list given to
          {!alloc_replies}; the same on every CPE *)
  parity : Engine.counter array;
      (** the two parity slots, counters named ["<name>[0]"] and
          ["<name>[1]"] *)
}
(** One CPE's double reply counter. *)

type cpe = {
  rid : int;
  cid : int;
  spm : Spm.t;
  mutable buffers : Spm.buffer array;
      (** set by {!alloc_buffers}: the handle of the [i]-th declaration *)
  mutable replies : reply array;
      (** set by {!alloc_replies}: the handle of the [i]-th reply name *)
}

type t = {
  config : Config.t;
  engine : Engine.t;
  mem : Mem.t;
  cpes : cpe array array;  (** row-major: [cpes.(rid)] is one mesh row *)
  columns : cpe array array;
      (** column-major view of the same CPEs, built once: [columns.(cid)] is
          one mesh column, in row order *)
  dma : Engine.channel;
  row_links : Engine.channel array;
  col_links : Engine.channel array;
  barrier : Engine.barrier;
  trace : Trace.t option;
  faults : Fault.t option;
  mutable reply_rma : bool array;
      (** which primitive last armed each reply, by [slot] ([true] =
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
(** Allocate the same buffers on every CPE and set each CPE's [buffers];
    raises {!Error.Sim_error} ([Overflow]) on SPM overflow. *)

val alloc_replies : t -> string list -> unit
(** Create a double reply counter (two parity slots) per name per CPE and
    set each CPE's [replies]; a repeated name shares its first
    occurrence's counters. *)

val races : t -> Error.race list
(** All races detected on any CPE, sorted by (rid, cid, buffer, copy,
    time) so reports are deterministic. *)

(** {2 Athread primitives} (call from a CPE fiber) *)

(** Buffer and reply arguments are the calling CPE's handles; a buffer
    comes with the copy it names, and [rcopy] picks the parity slot. *)

val dma_get :
  t -> cpe -> array_name:string -> batch:int option -> row_lo:int ->
  col_lo:int -> rows:int -> cols:int -> buf:Spm.buffer -> copy:int ->
  reply:reply -> rcopy:int -> unit

val dma_put :
  t -> cpe -> array_name:string -> batch:int option -> row_lo:int ->
  col_lo:int -> rows:int -> cols:int -> buf:Spm.buffer -> copy:int ->
  reply:reply -> rcopy:int -> unit

val rma_bcast :
  t -> cpe -> dir:[ `Row | `Col ] -> src:Spm.buffer * int ->
  dst:Spm.buffer * int -> rows:int -> cols:int -> root:int ->
  reply_s:reply -> reply_r:reply -> rcopy:int -> unit
(** SPMD broadcast: every CPE of the mesh calls this; the one whose
    row/column coordinate equals [root] is the sender and occupies the
    link. Non-senders only arm their receive counter; the sender's
    completion increments [reply_r] on every CPE of its row/column and
    [reply_s] on itself (non-senders' [reply_s] is satisfied at issue, as
    they send nothing). Each receiver's copy of [dst] and [reply_r] is the
    one at the same index ({!Spm.index}, [slot]). *)

val wait_reply : t -> cpe -> reply:reply -> rcopy:int -> unit

val wait_reply_deadline :
  t -> cpe -> reply:reply -> rcopy:int -> timeout:float -> bool
(** [wait_reply] with a simulated-time deadline: [false] means the reply
    did not arrive within [timeout] seconds and the caller should retry or
    degrade (see {!Interp} retry policy). *)

val sync : t -> cpe -> unit

val kernel :
  t -> cpe -> c:Spm.buffer * int -> a:Spm.buffer * int -> b:Spm.buffer * int ->
  m:int -> n:int -> k:int -> alpha:float -> accumulate:bool -> ta:bool ->
  tb:bool -> style:[ `Asm | `Naive ] -> unit

val spm_map :
  t -> cpe -> buf:Spm.buffer * int -> rows:int -> cols:int -> fn:string ->
  unit
