(** Simulation of a multi-cluster plan.

    Timing: operand panels travel from their home memory to each cluster's
    attached memory over the network-on-chip before the clusters run their
    independent GEMMs in parallel; results travel back. Distribution of
    different clusters proceeds in parallel, bounded by the per-cluster NoC
    link and by the source memory's aggregate bandwidth, as the [noc_*]
    fields of the session's machine model describe them.

    Function: {!verify} runs every per-cluster job through the full
    generated-code interpreter at a reduced scale and reassembles the
    output — the end-to-end correctness argument for the decomposition.

    Both entry points compile through a {!Sw_core.Session.t} (which
    supplies the machine model, options and plan cache) and fan their
    per-cluster jobs out over a {!Sw_host.Pool} of [jobs] host domains
    (default {!Sw_host.Pool.default_jobs}; [jobs = 1] runs inline).
    Results are independent of [jobs]: per-job work is deterministic and
    collected in job order, so stdout, stats and errors never depend on
    which domain finished first. *)

type stats = {
  seconds : float;
  gflops : float;
  distribution_s : float;  (** NoC time (in + out), not overlapped *)
  per_cluster_s : float list;
      (** sorted by [(grid_row, grid_col)], so the list is stable under any
          reordering of the plan's jobs or of their completion *)
  parallel_efficiency : float;
      (** single-cluster time / (clusters * multi-cluster compute time) *)
}

val measure : ?jobs:int -> Sw_core.Session.t -> Plan.t -> stats

val verify :
  ?seed:int ->
  ?jobs:int ->
  Sw_core.Session.t ->
  Plan.t ->
  (unit, Sw_arch.Error.t) result
(** Functional: global random operands are sliced per the plan, every job
    executes through {!Sw_core.Runner.simulate} on its own simulated
    cluster, the C blocks are reassembled and compared with
    {!Sw_core.Runner.reference} on the whole problem under
    {!Sw_core.Runner.first_mismatch}. Use a session with a tiny config.
    Each job runs on the machine model it was compiled for — the
    session's, or the one a [tuned] lookup chose for the job's shape.

    Failures are typed values: a job's compile or simulator error passes
    through unchanged (first failing job in plan order wins); a
    reassembly mismatch against the reference is [Sw_arch.Error.Invalid]. *)
