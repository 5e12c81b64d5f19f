(** Functional model of the vendor micro kernel (§7.2 of the paper).

    The real kernel is a compiled assembly object of fixed shape 64x64x32
    that multiplies SPM-resident tiles with optimal register allocation,
    SIMD and unrolling. Its only architectural contract — the one the
    compiler relies on — is the shape and the memory layout of the operand
    tiles; we implement that contract on plain row-major [float array]
    tiles. The cycle cost of an invocation is charged by the simulator
    ({!Sw_arch}), not here.

    All functions operate on flat row-major tiles with an element offset. *)

val dgemm_tile :
  m:int -> n:int -> k:int -> alpha:float -> accumulate:bool ->
  a:float array -> ao:int ->
  b:float array -> bo:int ->
  c:float array -> co:int -> unit
(** [dgemm_tile] computes [C (+)= alpha * A * B] where [A] is [m x k], [B]
    is [k x n] and [C] is [m x n], all row-major and contiguous starting at
    the given offsets. With [accumulate = false] the previous contents of
    [C] are overwritten. The loop order (i, k, j) with a register
    accumulator mirrors the structure of the unrolled assembly. *)

val dgemm_tile_t :
  ta:bool -> tb:bool ->
  m:int -> n:int -> k:int -> alpha:float -> accumulate:bool ->
  a:float array -> ao:int ->
  b:float array -> bo:int ->
  c:float array -> co:int -> unit
(** Transposed-operand variant: with [ta] the A tile is stored [k x m]
    (as DMA'd straight out of a transposed matrix); with [tb] the B tile is
    stored [n x k]. [ta = tb = false] is exactly {!dgemm_tile}. *)

val flops : m:int -> n:int -> k:int -> int
(** Floating-point operations performed: [2*m*n*k]. *)
