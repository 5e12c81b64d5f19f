(** The versioned wire protocol of [swgemmd].

    One frame is one line of JSON (no embedded newlines; the transport
    appends ['\n']). Requests are [{v:1, id, method, params}], responses
    [{v:1, id, ok}] on success and [{v:1, id, error:{class, message}}] on
    failure, where [class] is a stable {!Sw_arch.Error.class_of} token —
    the same tokens the logs and flight records use, so a wire client,
    a log grepper and a test all match on the same strings.

    Decoding is total: malformed JSON, oversized frames, unknown
    versions and missing fields all come back as [Error _] carrying a
    typed [Sw_arch.Error.Invalid] — a hostile peer can never crash the
    daemon, only earn an error frame. This module is pure (no I/O); the
    socket loops live in {!Server} and {!Client}. *)

val max_frame_bytes : int
(** Upper bound on one encoded frame (64 KiB). {!decode_request} and
    {!decode_response} reject longer inputs without parsing them. *)

type request = {
  id : string;  (** client-chosen correlation id, echoed in the response *)
  meth : string;  (** e.g. [compile], [verify], [stat], [ping] *)
  params : Sw_obs.Json.t;  (** method-specific; [Null] when omitted *)
}

type error = {
  err_class : string;  (** stable {!Sw_arch.Error.class_of} token *)
  message : string;  (** human-readable rendering, never parsed *)
}

type response = { rid : string; body : (Sw_obs.Json.t, error) result }

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> (request, Sw_arch.Error.t) result
(** Protocol violations (bad JSON, not an object, missing/mistyped [id]
    or [method], oversized frame) map to [Invalid]; an [Obj] with
    [v <> version] maps to [Invalid] naming both versions. *)

val decode_response : string -> (response, Sw_arch.Error.t) result

val response_of_result :
  id:string -> (Sw_obs.Json.t, Sw_arch.Error.t) result -> response

val error_response : id:string -> Sw_arch.Error.t -> string
(** [encode_response (response_of_result ~id (Error e))]. *)
