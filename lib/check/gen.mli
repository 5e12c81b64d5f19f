(** Case generation, mutation and shrinking.

    All randomness flows from a [Random.State.t] the driver splits off a
    master state per case, so the generated stream depends only on the
    master seed — never on [--jobs] or scheduling. Sizes are drawn around
    the decomposition tiles of the case's machine model (aligned with
    probability 1/2, ragged otherwise), up to 3 tiles per dimension — more
    on a machine whose tiles are small enough that a batch of three cubes
    of that many tiles a side fits the volume budget — and clamped to that
    budget so functional simulation stays fast; scalars come from small pools of
    exactly-representable floats. When a corpus is available, half the
    cases mutate an existing entry instead of starting fresh. *)

val generate :
  ?archs:Case.config_id array ->
  Random.State.t ->
  id:int ->
  corpus:Case.t list ->
  fault:(int array * Sw_arch.Fault.kind list option) option ->
  Case.t
(** Draw one case. [archs] is the pool of {!Case.config_id}s fresh cases
    draw their machine from (default: the tiny2/tiny2-deep/tiny4 mix;
    mutated corpus entries keep their own); [corpus] is the mutation pool
    (may be empty); [fault] enables injection — roughly half the cases
    then carry a fault plan seeded from one of the given seeds offset by
    [id]. *)

val shrink_candidates : Case.t -> Case.t list
(** Strictly-simpler variants of a failing case, most aggressive first
    (dimensions to 1, then halved; batch dropped; fusion dropped;
    transposes cleared; scalars to 1). Options, config and data seed are
    preserved — they are part of what the failure depends on. *)
