(** Software-managed scratch-pad memory of one CPE (§2.1: 256 KB on the
    SW26010Pro), with capacity accounting and read/write interval tracking
    used to detect double-buffering races.

    A buffer holds [copies] identical tiles of [rows x cols] doubles; copy
    indices implement the double buffering of §6.3. Every read and write is
    stamped with its simulated time interval; an overlap between a write
    and a read of the same copy is recorded as a race (it would be silent
    data corruption on the real hardware). *)

type t

type buffer
(** A handle to one allocated buffer of one SPM. {!alloc} returns it once;
    every later access goes through the handle, with no lookup by name.
    The handle keeps the buffer's name for race reports. *)

val create : capacity_bytes:int -> functional:bool -> t
(** With [functional = false] no data is stored, only capacity and race
    bookkeeping (used for timing-only simulations of huge problems).
    {!Cluster.create} passes the mode of its {!Mem.t}. *)

val alloc : t -> string -> rows:int -> cols:int -> copies:int -> buffer
(** Raises {!Error.Sim_error}: [Invalid] for a name already allocated or
    an empty buffer, [Overflow] when the allocation exceeds remaining
    capacity. *)

val tile : buffer -> copy:int -> float array
(** The backing array of one copy ([functional] mode only). *)

val note_write : buffer -> copy:int -> start:float -> finish:float -> unit
(** Record a write interval (DMA-get or RMA arrival into the buffer) and
    check it against the last read. *)

val note_read : buffer -> copy:int -> start:float -> finish:float -> unit
(** Record a read interval (kernel consuming the buffer, DMA-put draining
    it) and check it against the last write. *)

val races : t -> Error.conflict list
(** All races detected so far on any buffer of this SPM, in detection
    order (use {!Error.conflict_to_string} to render). *)

val corrupt : buffer -> copy:int -> index:int -> delta:float -> unit
(** Fault injection: perturb one element of a copy's backing data
    ([functional] mode only; a no-op in timing-only mode or when [index]
    is out of range). *)
