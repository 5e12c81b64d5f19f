(** One conformance test case: everything needed to re-run the three-way
    oracle deterministically.

    A case is a {!Sw_core.Spec.t} (the problem), a {!Sw_core.Options.t}
    (which optimizations the generator enables), a machine configuration,
    the seed of the input data, and an optional fault-injection plan. The
    JSON round-trip is the on-disk format of corpus and repro files. *)

type config_id = string
(** A machine configuration, named in one of two forms, each optionally
    followed by a micro-kernel override [\@MxNxK]:
    - an {!Sw_arch.Config} registry name or alias (["tiny4"],
      ["tiny-2x2"]);
    - ["tiny-RxC"] for any other R x C mesh, built as
      [Sw_arch.Config.tiny ~mesh:R ~cols:C ()]; registry names resolve
      first, so ["tiny-8x8"] is the preset.

    ["tiny4\@8x8x4"] is [tiny4] with an 8x8x4 micro kernel — the form
    tuned winners take when the tuning DB feeds the fuzzer;
    ["tiny-1x3\@2x2x2"] is a 1 x 3 mesh with a 2x2x2 one. R, C, M, N and
    K are positive decimal integers, and an override must leave a
    machine model {!Sw_arch.Config.validate} accepts.
    {!config_id_of_string} is the checked constructor. *)

val config_id_of_string : string -> config_id option
(** [Some id] iff [id] resolves to a machine configuration; never
    raises. *)

val config_of : config_id -> Sw_arch.Config.t
(** Raises [Invalid_argument] on an id that does not resolve. *)

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
