(* Structured JSON-lines event log with a domain-local ambient instance.

   Mirrors Metrics/Span: the ambient logger is per-domain, the host pool
   forks a fresh logger per task and absorbs the buffers in task order, so
   the event sequence is deterministic under --jobs. Events that pass the
   level filter are forwarded to the (global) Flight recorder when one is
   installed, so flight dumps carry the recent narrative. *)

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

type field = S of string | I of int | F of float | B of bool

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
  capacity : int;
  clock : unit -> float;
  out : out_channel option;
  ring : event option array;
  mutable head : int;  (* next write slot *)
  mutable nevs : int;  (* live events, <= capacity *)
  mutable seq : int;  (* next sequence number *)
  mutable drop : int;  (* events overwritten *)
}

let create ?(min_level = Info) ?(capacity = 4096)
    ?(clock = Unix.gettimeofday) ?out () =
  if capacity < 1 then invalid_arg "Log.create: capacity must be >= 1";
  {
    lvl = min_level;
    capacity;
    clock;
    out;
    ring = Array.make capacity None;
    head = 0;
    nevs = 0;
    seq = 0;
    drop = 0;
  }

let fork t = create ~min_level:t.lvl ~capacity:t.capacity ~clock:t.clock ()

let level_enabled t level = severity level >= severity t.lvl
let length t = t.nevs
let dropped t = t.drop

let events t =
  let out = ref [] in
  for i = t.capacity - 1 downto 0 do
    match t.ring.((t.head + i) mod t.capacity) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let field_json = function
  | S s -> Json.String s
  | I i -> Json.Int i
  | F f -> Json.Float f
  | B b -> Json.Bool b

let to_json (e : event) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("ts", Json.Float e.ts);
      ("level", Json.String (level_to_string e.level));
      ("scope", Json.String e.scope);
      ("event", Json.String e.name);
      ( "fields",
        Json.Obj (List.map (fun (k, v) -> (k, field_json v)) e.fields) );
    ]

let to_line e = Json.to_string (to_json e)

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

let emit t e =
  match t.out with
  | None -> ()
  | Some oc ->
      output_string oc (to_line e);
      output_char oc '\n';
      flush oc

(* Raw append: buffer + stream, no level filter, no Flight forward.
   Shared by [event] (which filters and forwards first) and [absorb]
   (whose events were filtered and forwarded by the child). *)
let append t (e : event) =
  let e = { e with seq = t.seq } in
  t.seq <- t.seq + 1;
  if t.ring.(t.head) <> None then t.drop <- t.drop + 1
  else t.nevs <- t.nevs + 1;
  t.ring.(t.head) <- Some e;
  t.head <- (t.head + 1) mod t.capacity;
  emit t e

let event t level ~scope name fields =
  if level_enabled t level then begin
    let e = { seq = 0; ts = t.clock (); level; scope; name; fields } in
    append t e;
    if Flight.enabled () then Flight.record ~kind:"log" (to_json e)
  end

let absorb ~into child = List.iter (append into) (events child)

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
