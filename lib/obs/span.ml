type arg = S of string | I of int | F of float | B of bool

type ev = {
  name : string;
  cat : string;
  ph : string;  (* "X" complete, "i" instant *)
  pid : int;
  tid : int;
  ts_us : float;
  dur_us : float;  (* ignored for instants *)
  args : (string * arg) list;
}

type sink = {
  clock : unit -> float;
  epoch : float;
  mutable evs : ev list;  (* newest first *)
  mutable nevs : int;
  mutable names : ((int * int option) * string) list;  (* (pid, tid?) -> name *)
}

let host_pid = 1
let sim_pid = 0

let create ?(clock = Unix.gettimeofday) ?epoch () =
  let epoch = match epoch with Some e -> e | None -> clock () in
  { clock; epoch; evs = []; nevs = 0; names = [] }

let epoch t = t.epoch

let push t e =
  t.evs <- e :: t.evs;
  t.nevs <- t.nevs + 1

let complete t ?(cat = "") ?(args = []) ~pid ~tid ~ts_us ~dur_us name =
  push t { name; cat; ph = "X"; pid; tid; ts_us; dur_us; args }

let instant t ?(cat = "") ?(args = []) ~pid ~tid ~ts_us name =
  push t { name; cat; ph = "i"; pid; tid; ts_us; dur_us = 0.0; args }

let span t ?cat ?args ?(tid = 0) name f =
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = t.clock () in
      complete t ?cat ?args ~pid:host_pid ~tid
        ~ts_us:(1e6 *. (t0 -. t.epoch))
        ~dur_us:(1e6 *. (t1 -. t0))
        name;
      (* host-side spans feed the flight recorder (raw sink pushes from
         the trace bridge do not — thousands of simulated events would
         flood the ring) *)
      if Flight.enabled () then
        Flight.record ~kind:"span"
          (Json.Obj
             [
               ("name", Json.String name);
               ("cat", Json.String (Option.value cat ~default:""));
               ("dur_us", Json.Float (1e6 *. (t1 -. t0)));
             ]))
    f

let set_process_name t ~pid name =
  t.names <- ((pid, None), name) :: List.remove_assoc (pid, None) t.names

let set_thread_name t ~pid ~tid name =
  t.names <- ((pid, Some tid), name) :: List.remove_assoc (pid, Some tid) t.names

let length t = t.nevs

(* Stitch a child sink (e.g. a worker domain's lane) into a parent sink:
   host-pid events are re-homed onto the given tid so each domain renders
   as its own named track, simulated-time events (pid 0) keep their track.
   The child should share the parent's epoch so timestamps line up. *)
let absorb ~into ?tid child =
  let retag e =
    match tid with
    | Some t when e.pid = host_pid -> { e with tid = t }
    | _ -> e
  in
  into.evs <- List.map retag child.evs @ into.evs;
  into.nevs <- into.nevs + child.nevs;
  List.iter
    (fun ((pt, tt), name) ->
      (* host-pid thread names of a retagged child are lane-local and are
         superseded by the parent's per-domain lane name *)
      if not (tid <> None && pt = host_pid && tt <> None) then
        into.names <- ((pt, tt), name) :: List.remove_assoc (pt, tt) into.names)
    (List.rev child.names)

(* ------------------------------------------------------------------ *)
(* Ambient sink                                                         *)
(* ------------------------------------------------------------------ *)

(* Domain-local, like the metrics registry: each worker domain records
   spans into its own sink; the pool stitches worker lanes into the
   parent's sink with [absorb]. *)
let installed : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install s = Domain.DLS.set installed (Some s)
let uninstall () = Domain.DLS.set installed None
let current () = Domain.DLS.get installed

let ambient ?cat ?args name f =
  match current () with None -> f () | Some s -> span s ?cat ?args name f

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)
(* ------------------------------------------------------------------ *)

let json_arg = function
  | S s -> Json.String s
  | I i -> Json.Int i
  | F f -> Json.Float f
  | B b -> Json.Bool b

let json_args args = Json.Obj (List.map (fun (k, v) -> (k, json_arg v)) args)

let json_ev e =
  Json.Obj
    ([
       ("name", Json.String e.name);
       ("cat", Json.String (if e.cat = "" then "default" else e.cat));
       ("ph", Json.String e.ph);
       ("pid", Json.Int e.pid);
       ("tid", Json.Int e.tid);
       ("ts", Json.Float e.ts_us);
     ]
    @ (if e.ph = "X" then [ ("dur", Json.Float e.dur_us) ] else [])
    @ (if e.ph = "i" then [ ("s", Json.String "t") ] else [])
    @ if e.args = [] then [] else [ ("args", json_args e.args) ])

let json_meta ((pid, tid), name) =
  let kind, tid_fields =
    match tid with
    | None -> ("process_name", [])
    | Some tid -> ("thread_name", [ ("tid", Json.Int tid) ])
  in
  Json.Obj
    ([
       ("name", Json.String kind);
       ("ph", Json.String "M");
       ("pid", Json.Int pid);
     ]
    @ tid_fields
    @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ])

let to_chrome t =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map json_meta (List.rev t.names)
          @ List.rev_map json_ev t.evs) );
      ("displayTimeUnit", Json.String "ms");
    ]
