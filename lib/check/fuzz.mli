(** The round-based fuzzing driver behind [swgemmgen fuzz].

    Cases are generated sequentially from a splittable master PRNG, run
    through {!Oracle.check} over a {!Sw_host.Pool} in fixed-size rounds,
    and post-processed (coverage accounting, corpus updates, shrinking)
    sequentially in case order. Because the round size is fixed, the pool
    preserves input order, and every random draw happens on the driver
    thread, the full output — per-case lines and summary — is
    byte-identical for any [--jobs]. *)

type settings = {
  cases : int;
  seed : int;
  jobs : int;
  archs : Case.config_id array option;
      (** machine pool for fresh cases ({!Sw_arch.Config} preset names);
          [None] uses the default tiny mix *)
  fault : (int array * Sw_arch.Fault.kind list option) option;
      (** fault plan seeds and kinds; [None] disables injection *)
  corpus_dir : string option;  (** persist/load the corpus here *)
  repro_dir : string;  (** failing cases are shrunk and written here *)
  max_shrink : int;  (** total oracle-run budget for shrinking *)
  sabotage : string option;  (** arm {!Sw_core.Pass.set_sabotage} *)
  print : string -> unit;
}

type failure_record = {
  original : Case.t;
  shrunk : Case.t;
  stage : string;
  detail : string;
  shrink_steps : int;
  repro : string;  (** path of the written repro file *)
}

type summary = {
  total : int;
  disagreements : failure_record list;  (** in case order *)
  novel : int;  (** novel coverage keys this run *)
  corpus_size : int;
  recoveries : (string * int) list;  (** fault-run conclusions, sorted *)
  fault_hits : (string * int) list;  (** injections by kind, sorted *)
}

val run : settings -> summary
(** Runs the campaign, printing one line per case plus a summary through
    [settings.print]. Never raises on a disagreement — failures are
    shrunk, persisted and reported in the summary. *)

val replay : print:(string -> unit) -> string -> (bool, string) result
(** Re-run the case of a repro (or corpus) file, re-arming its sabotage
    switch; [Ok true] when the failure reproduces, [Ok false] when all
    routes now agree. *)
