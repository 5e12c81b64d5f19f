(** Minimal JSON emitter.

    The observability layer writes three artifact families — metric
    snapshots, Chrome trace-event files, profile reports — and every
    consumer (Perfetto, CI validators, re-plotting scripts) parses them
    with a strict JSON parser, so the emitter must be exact: full string
    escaping (quotes, backslashes, control characters as \uXXXX) and no
    bare [nan]/[inf] literals (both render as [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The JSON string-literal image of [s], without the surrounding
    quotes. *)

val to_string : ?pretty:bool -> t -> string
(** Render; [pretty] (default false) adds newlines and two-space
    indentation. *)

val write_file : ?pretty:bool -> path:string -> t -> unit
(** Create parent directory if missing (one level), write atomically via a
    temporary file. *)

(** {2 Parsing}

    Inverse of {!to_string} for the documents this layer emits (all of
    JSON minus non-ASCII [\uXXXX] escapes — the emitter stores non-ASCII
    bytes verbatim). The conformance engine's corpus and repro files are
    read back through this. *)

val parse : string -> (t, string) result
(** Strict parse of a complete document; the error names the byte offset.
    Round-trips with {!to_string}: [parse (to_string v) = Ok v] for every
    value without nan/inf floats. *)

val parse_file : string -> (t, string) result

(** {2 Accessors} (shallow, total) *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
