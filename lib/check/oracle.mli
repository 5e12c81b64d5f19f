(** The three-way differential oracle.

    A clean case is computed three independent ways, which must agree to a
    relative [1e-9]:

    + {b direct interpretation} — the spec is rendered back to naive C
      ({!Csrc}), parsed by {!Sw_frontend.Parser} and executed loop-by-loop
      by {!Sw_frontend.Exec}, with no polyhedral machinery involved (and,
      for [beta = 1] sources, {!Sw_frontend.Extract.recognize} must
      recover the exact spec);
    + {b generated code on the simulated cluster} — {!Sw_core.Compile}
      through a one-shot session, then a functional
      {!Sw_core.Runner.simulate} run over zero-padded inputs;
    + {b the pure-OCaml reference} — {!Sw_core.Runner.reference}
      ({!Sw_blas.Dgemm}) on the original (unpadded) data.

    A case's inputs come from {!Sw_core.Runner.inputs}, and every
    agreement check is {!Sw_core.Runner.first_mismatch}.

    On top of route agreement, metamorphic relations are checked: a
    different optimization set must compute the same result; an epilogue
    case must equal the element-wise function applied to its unfused
    counterpart; a no-fusion case must satisfy the alpha-scaling identity
    [C(2a) = 2 C(a) - beta C0].

    A faulted case instead runs {!Sw_core.Runner.verify_resilient} and
    checks the resilience contract: the run matches the reference
    (possibly via recovery), or fails with a typed error — except that a
    watchdog expiry (a hang) and a mismatch without SPM flips enabled
    (silent corruption) are conformance failures. *)

type failure = { stage : string; detail : string }
(** Where the disagreement was detected ([exec-vs-ref], [sim-vs-ref],
    [recognize], [compile], [metamorphic-*], [fault-contract], ...) and a
    one-line diagnosis. *)

type report = {
  feature : Sw_core.Feature.t;  (** coverage features of the compiled plan *)
  key : string;
      (** corpus key: {!Sw_core.Feature.to_key} plus fault/recovery tags *)
  recovery : string option;  (** how a faulted run concluded *)
  fault_stats : (Sw_arch.Fault.kind * int) list;
      (** injections actually performed *)
}

val check : Case.t -> (report, failure) result
(** Run every route and relation applicable to the case. Deterministic: a
    pure function of the case (given the process-wide sabotage switch). *)

val check_gemv :
  m:int ->
  n:int ->
  alpha:float ->
  beta:float ->
  seed:int ->
  (unit, failure) result
(** The same three-way agreement for the GEMV generator ({!Sw_core.Gemv}):
    direct interpretation of the naive nest, the generated all-broadcast
    program on the simulated cluster, and the reference, on one shared set
    of random inputs. *)
