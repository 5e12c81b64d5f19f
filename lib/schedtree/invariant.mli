(** Inter-pass schedule-tree validator.

    {!Tree.validate} enforces the structural rules every schedule tree must
    obey. [check] layers the pipeline invariants on top — the properties
    each compilation pass must preserve for the next one to be sound:

    - {b permutability}: a band with several members must still be marked
      permutable; tiling/strip-mining/peeling may reorder or split bands
      but never invalidate the dependence analysis that licensed them;
    - {b live buffers}: every SPM buffer named by a communication payload
      (DMA, RMA, element-wise map, kernel operand) must be declared in the
      program's SPM inventory, and every reply counter must be declared;
    - {b SPM footprint}: the declared buffers, double-buffer copies
      included, must fit the per-CPE SPM capacity.

    The pass manager ({!Sw_core.Pass}) runs [check] between every pass in
    debug mode. *)

type buffer = { buf : string; rows : int; cols : int; copies : int }
(** One declared SPM buffer: [8 * rows * cols * copies] bytes. *)

val check :
  ?buffers:buffer list ->
  ?replies:string list ->
  ?spm_capacity:int ->
  Tree.t ->
  (unit, string) result
(** Structural validity plus the pipeline invariants. Buffer-liveness and
    footprint checks run only when [buffers] is given; the footprint check
    additionally needs [spm_capacity]. *)
