(** The flag forest shared by [swgemmgen] and [swgemmd].

    Every flag that names a piece of session state — the machine model
    ([--tiny]/[--arch]/[--arch-file]), the durable store ([--store]),
    the request deadline ([--deadline]), the fan-out width ([--jobs])
    and the log narrative ([--log-level]/[--log-file]/[--metrics]) —
    is defined here exactly once, so the two binaries parse, document
    and validate them identically and a flag added for one is
    automatically a candidate for the other. The [--help] renderings
    are pinned by the golden CLI test.

    Subcommands that need one flag use the individual [Arg] terms; a
    binary that needs the whole set uses {!term}, which packs them into
    {!t}, and {!session}, which resolves [t] into the one
    {!Sw_core.Session} the binary runs on. *)

open Cmdliner

(** {2 Individual flags} *)

val tiny_arg : bool Term.t
val arch_arg : string option Term.t
val arch_file_arg : string option Term.t
val store_arg : string option Term.t
val deadline_arg : float option Term.t
val jobs_arg : int Term.t
val no_cache_arg : bool Term.t
val metrics_arg : bool Term.t
val log_level_arg : Sw_obs.Log.level option Term.t
val log_file_arg : string option Term.t

val jobs_conv : int Arg.conv
(** Positive integer; rejects bad values at parse time. *)

(** {2 The combined term} *)

type t = {
  tiny : bool;
  arch : string option;
  arch_file : string option;
  store_dir : string option;
  deadline : float option;
  jobs : int;
  no_cache : bool;
  metrics : bool;
  log_level : Sw_obs.Log.level option;
  log_file : string option;
}

val term : t Term.t
(** All of the above as one cmdliner term. *)

(** {2 Resolution helpers} *)

val resolve_config :
  tiny:bool ->
  arch:string option ->
  arch_file:string option ->
  (Sw_arch.Config.t, [ `Msg of string ]) result
(** Machine-model resolution, most explicit source first: [--arch-file],
    then [--arch] (registry preset), then [--tiny], then the calibrated
    SW26010Pro default. *)

val open_store : string -> (Sw_host.Store.t, [ `Msg of string ]) result
(** Open the durable plan store under {!Sw_core.Compile.store_schema},
    mapping I/O failures to a usage-style error. *)

val session : t -> (Sw_core.Session.t, [ `Msg of string ]) result
(** Resolve the whole record into a session:
    {!Sw_core.Session.create} with the resolved machine model, the
    opened store (when [--store] was given) and the deadline.
    [--no-cache] disables the in-memory plan cache; [--jobs] stays with
    the caller, which sizes its own pools. *)

val with_logging :
  ?level:Sw_obs.Log.level -> ?file:string -> (unit -> 'a) -> 'a
(** Install the ambient JSON-lines logger and flight recorder for the
    duration of [f] — nothing at all when neither [level] nor [file] is
    given, so default output is byte-identical to a build without the
    subsystem. *)

val help_plain : unit -> string
(** The plain-text [--help] rendering of the shared flag set (one
    synthetic command carrying exactly {!term}), with the
    machine-dependent [--jobs] default normalized to [<jobs>]. Pinned
    byte-for-byte by the golden CLI test, so rewording a shared flag is
    always an explicit, reviewed diff. *)

val with_metrics : bool -> (unit -> 'a) -> 'a
(** Install a fresh ambient metrics registry for the run and print its
    snapshot afterwards; inert when the flag is [false]. *)
