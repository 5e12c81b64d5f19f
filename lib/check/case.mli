(** One conformance test case: everything needed to re-run the three-way
    oracle deterministically.

    A case is a {!Sw_core.Spec.t} (the problem), a {!Sw_core.Options.t}
    (which optimizations the generator enables), a machine configuration,
    the seed of the input data, and an optional fault-injection plan. The
    JSON round-trip is the on-disk format of corpus and repro files. *)

type config_id = string
(** The name of an {!Sw_arch.Config} preset, optionally with a
    micro-kernel override: ["tiny4"] is the preset as registered,
    ["tiny4\@8x8x4"] the same machine with an 8x8x4 micro kernel — the
    form tuned winners take when the tuning DB feeds the fuzzer. Only
    ids that resolve (known preset, positive [MxNxK], and a machine
    model {!Sw_arch.Config.validate} accepts) are valid —
    {!config_id_of_string} is the checked constructor. *)

val config_id_of_string : string -> config_id option
(** [Some id] iff the registry knows the name. *)

val config_of : config_id -> Sw_arch.Config.t
(** Raises [Invalid_argument] on a name the registry cannot resolve. *)

type t = {
  spec : Sw_core.Spec.t;
  options : Sw_core.Options.t;
  config : config_id;
  data_seed : int;  (** seeds the random input matrices *)
  fault : (int * Sw_arch.Fault.kind list option) option;
      (** plan seed and enabled kinds ([None] = all kinds) for runs under
          injection; [None] for clean runs *)
}

val to_string : t -> string
(** One-line human rendering, stable across runs (the fuzzer's per-case
    log line, which must be byte-identical for any [--jobs]). *)

val to_json : t -> Sw_obs.Json.t
val of_json : Sw_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; validates sizes, kernels and option
    combinations on the way in. *)
