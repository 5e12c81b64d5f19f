(** Data-dependence analysis for a single statement in a loop nest.

    This is the fragment of isl's dependence analysis the paper's pipeline
    relies on: given the statement's iteration domain and its array
    accesses, determine for each loop dimension whether it is {e coincident}
    (parallel: every self-dependence has distance zero on it) and whether
    the whole nest forms a {e permutable} (tilable) band (every
    self-dependence has non-negative distance on every dimension).

    For the canonical GEMM statement [C\[i\]\[j\] += A\[i\]\[k\] * B\[k\]\[j\]]
    this computes coincident = [|true; true; false|] and permutable = true,
    which is precisely the information isl attaches to the initial band node
    (§2.2 of the paper).

    Emptiness tests are rational and therefore conservative: a dimension is
    reported coincident only when no (rational) dependence with non-zero
    distance exists, and a band permutable only when no negative distance
    can exist — safe in both directions for the transformations applied. *)

type result = {
  coincident : bool array;  (** one flag per loop dimension *)
  permutable : bool;  (** may the whole band be tiled? *)
  has_reduction : bool;
      (** [true] when some dimension is non-coincident solely because of a
          read-write self-dependence on the same array cell (the GEMM
          [k]-loop pattern). *)
}

val analyze : domain:Bset.t -> accesses:Access.t list -> result
(** [analyze ~domain ~accesses] performs self-dependence analysis. The
    dimensions of [domain] are the loop iterators in nesting order. *)
