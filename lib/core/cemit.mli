(** Emission of athread C source from a compiled program (§7's pretty-print
    phase).

    The real tool writes two files compiled separately by [swgcc]: the MPE
    file holding [main] (allocation, mesh spawn, timing) and the CPE file
    holding the SPMD slave function with the SPM buffer declarations and
    the communication calls. We emit the same split; without [swgcc] the
    files serve as the inspectable, reviewable artifact of generation and
    are golden-tested. *)

val cpe_file : Compile.t -> string
(** The slave (CPE) translation unit: SPM declarations ([__thread_local]),
    reply indicators, and the SPMD kernel function. *)

val mpe_file : Compile.t -> string
(** The host (MPE) translation unit: aligned allocation, [athread_spawn],
    timing and teardown. *)

val write_files : Compile.t -> dir:string -> string * string
(** Write both files (plus [swgemm_kernels.h]) into [dir]
    ([<name>_mpe.c], [<name>_cpe.c]); returns the two C paths. *)
