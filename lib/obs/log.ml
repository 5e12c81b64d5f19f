(* Structured JSON-lines event log with a domain-local ambient instance.

   A logger streams each event to its channel as it happens. A fork (the
   pool's per-task logger) holds its events in a list instead, and the
   parent absorbs that list in task order, so the line stream is the same
   under --jobs. Events that pass the level filter are forwarded to the
   (global) Flight recorder when one is installed. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type field = Span.arg = S of string | I of int | F of float | B of bool

type event = {
  seq : int;
  ts : float;
  level : level;
  scope : string;
  name : string;
  fields : (string * field) list;
}

type t = {
  lvl : level;
  clock : unit -> float;
  out : out_channel option;
  mutable seq : int;  (* next sequence number *)
  mutable held : event list option;  (* a fork's events, newest first *)
}

let create ?(min_level = Info) ?(clock = Unix.gettimeofday) ?out () =
  { lvl = min_level; clock; out; seq = 0; held = None }

let fork t = { lvl = t.lvl; clock = t.clock; out = None; seq = 0; held = Some [] }

let level_enabled t level = severity level >= severity t.lvl

let to_json (e : event) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("ts", Json.Float e.ts);
      ("level", Json.String (level_to_string e.level));
      ("scope", Json.String e.scope);
      ("event", Json.String e.name);
      ("fields", Span.json_args e.fields);
    ]

let to_line e = Json.to_string (to_json e)

(* Raw append: sequence, then hold (a fork) or stream; no level filter,
   no Flight forward. Shared by [event] (which filters and forwards first)
   and [absorb] (whose events were filtered and forwarded by the child). *)
let append t (e : event) =
  let e = { e with seq = t.seq } in
  t.seq <- t.seq + 1;
  match (t.held, t.out) with
  | Some l, _ -> t.held <- Some (e :: l)
  | None, None -> ()
  | None, Some oc ->
      output_string oc (to_line e);
      output_char oc '\n';
      flush oc

let event t level ~scope name fields =
  if level_enabled t level then begin
    let e = { seq = 0; ts = t.clock (); level; scope; name; fields } in
    append t e;
    if Flight.enabled () then Flight.record ~kind:"log" (to_json e)
  end

let absorb ~into child =
  List.iter (append into) (List.rev (Option.value child.held ~default:[]))

(* ------------------------------------------------------------------ *)
(* Ambient logger                                                       *)
(* ------------------------------------------------------------------ *)

(* Domain-local, like the metrics registry: parallel workers never share
   a mutable logger; the pool absorbs per-task forks in task order. *)
let installed : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install t = Domain.DLS.set installed (Some t)
let uninstall () = Domain.DLS.set installed None
let current () = Domain.DLS.get installed
let enabled () = current () <> None

let log level ~scope name fields =
  match current () with
  | None -> ()
  | Some t -> event t level ~scope name fields

let debug ~scope name fields = log Debug ~scope name fields
let info ~scope name fields = log Info ~scope name fields
let warn ~scope name fields = log Warn ~scope name fields
let error ~scope name fields = log Error ~scope name fields
