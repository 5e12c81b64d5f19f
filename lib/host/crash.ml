(* Host-side fault harness: deterministic crash injection.

   The simulated cluster already has a fault layer (Sw_arch.Fault); this is
   its host-side counterpart. Durable-store writes call [hit SITE] at named
   points; an armed plan decides, per site and hit count, whether to raise
   (simulating abrupt death that leaves partial on-disk state behind) or
   SIGKILL the whole process (the CI chaos job's restart cycle).

   Arming is either programmatic ([with_plan], used by the in-process chaos
   tests) or via the environment variable SWGEMM_CRASH_AT=SITE:N[:kill],
   which the CI chaos-smoke job uses to kill a real process mid-write and
   then restart it. With nothing armed every [hit] is a single ref read. *)

type action =
  | Raise  (* abort the current request, leaving partial state behind *)
  | Kill  (* SIGKILL the whole process: the restart-recovery drill *)

exception Crashed of string

type trigger = {
  site : string;
  fire_on : int;  (* 1-based hit count at which the action fires *)
  action : action;
  mutable count : int;  (* hits observed so far *)
}

type plan = { triggers : trigger list }

let plan specs =
  {
    triggers =
      List.map
        (fun (site, fire_on, action) ->
          if fire_on < 1 then
            invalid_arg "Crash.plan: fire_on must be >= 1";
          { site; fire_on; action; count = 0 })
        specs;
  }

(* The armed plan is global (one process = one chaos experiment) but only
   mutated under [lock]: store writes may run on pool domains. *)
let lock = Mutex.create ()
let armed : plan option ref = ref None

let parse_env s =
  (* SITE:N[:kill] — the CI form always kills; an explicit third field is
     accepted for clarity *)
  match String.split_on_char ':' s with
  | [ site; n ] | [ site; n; "kill" ] -> (
      match int_of_string_opt n with
      | Some fire_on when fire_on >= 1 -> Some (site, fire_on, Kill)
      | _ -> None)
  | [ site; n; "raise" ] -> (
      match int_of_string_opt n with
      | Some fire_on when fire_on >= 1 -> Some (site, fire_on, Raise)
      | _ -> None)
  | _ -> None

let env_loaded = ref false

let load_env () =
  if not !env_loaded then begin
    env_loaded := true;
    match Sys.getenv_opt "SWGEMM_CRASH_AT" with
    | None -> ()
    | Some s -> (
        match parse_env s with
        | Some spec -> armed := Some (plan [ spec ])
        | None ->
            prerr_endline
              ("swgemm: ignoring malformed SWGEMM_CRASH_AT (want \
                SITE:N[:kill]): " ^ s))
  end

let arm p =
  Mutex.lock lock;
  env_loaded := true;
  (* programmatic plans override the environment *)
  armed := Some p;
  Mutex.unlock lock

let disarm () =
  Mutex.lock lock;
  env_loaded := true;
  armed := None;
  Mutex.unlock lock

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

(* What to do for this hit, decided under the lock; the action itself (a
   flight dump that writes a file) runs outside it. *)
let decide site =
  Mutex.lock lock;
  load_env ();
  let fired =
    match !armed with
    | None -> None
    | Some p ->
        List.fold_left
          (fun acc t ->
            if String.equal t.site site then begin
              t.count <- t.count + 1;
              if t.count = t.fire_on then Some t.action else acc
            end
            else acc)
          None p.triggers
  in
  Mutex.unlock lock;
  fired

(* Last words before dying: the flight dump is the only forensic record a
   Kill leaves behind (it writes results/, never the store, so crash
   recovery invariants are unperturbed). *)
let flight_dump site action =
  if Sw_obs.Flight.enabled () then begin
    Sw_obs.Log.error ~scope:"crash" "fired"
      [ ("site", Sw_obs.Log.S site); ("action", Sw_obs.Log.S action) ];
    Sw_obs.Flight.record ~kind:"crash"
      (Sw_obs.Json.Obj
         [
           ("site", Sw_obs.Json.String site);
           ("action", Sw_obs.Json.String action);
         ]);
    ignore (Sw_obs.Flight.trigger ~reason:("crash." ^ site))
  end

let hit site =
  match !armed with
  | None when !env_loaded -> ()  (* fast path: nothing armed *)
  | _ -> (
      match decide site with
      | None -> ()
      | Some Raise ->
          Sw_obs.Metrics.incr_a ~labels:[ ("site", site) ]
            "host_fault.crashes_total";
          flight_dump site "raise";
          raise (Crashed site)
      | Some Kill ->
          (* dump the flight record, then die abruptly: nothing else is
             flushed — partial on-disk state is the point of the drill *)
          flight_dump site "kill";
          Unix.kill (Unix.getpid ()) Sys.sigkill)

let () =
  Printexc.register_printer (function
    | Crashed site -> Some (Printf.sprintf "Sw_host.Crash.Crashed(%s)" site)
    | _ -> None)
