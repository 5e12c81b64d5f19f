(* Typed errors of the simulated cluster. One variant per failure class so
   harnesses can match on the cause instead of parsing strings; every
   constructor carries enough forensics (CPE coordinates, counter names,
   simulated times) to localize the failing protocol step. *)

type conflict = {
  buffer : string;
  copy : int;
  kind : [ `Write_read | `Write_write | `Read_write ];
  op_start : float;
  op_finish : float;
  prev_start : float;
  prev_finish : float;
}

type race = { rid : int; cid : int; conflict : conflict }

type blocked = {
  fiber : string;  (* label of the parked fiber, e.g. "CPE(2,3)" *)
  counter : string;  (* reply counter or barrier it is parked on *)
  current : int;  (* the counter's value at quiescence *)
  awaited : int;  (* the value the fiber is waiting for *)
  parked_at : float;  (* simulated time at which it blocked *)
}

type diagnosis = {
  sim_time : float;  (* clock when the event queue drained *)
  events_run : int;
  fibers : blocked list;  (* every fiber still parked, sorted *)
}

type t =
  | Deadlock of diagnosis
  | Race of race list
  | Bounds of { array_name : string; detail : string }
  | Overflow of { buffer : string; needed : int; available : int; capacity : int }
  | Fault_exhausted of {
      fiber : string;
      counter : string;
      retries : int;
      sim_time : float;
    }
  | Watchdog of {
      limit : [ `Sim_time of float | `Events of int ];
      sim_time : float;
      events_run : int;
    }
  | Invalid of string
  | Timeout of { stage : string; elapsed_s : float; deadline_s : float }
  | Overloaded of { in_flight : int; queued : int; limit : int }

exception Sim_error of t

(* One stable lowercase token per variant. The token appears verbatim in
   the corresponding to_string output, so both programmatic matching and
   log grepping key on the same word; tests pin this. *)
let class_of = function
  | Deadlock _ -> "deadlock"
  | Race _ -> "race"
  | Bounds _ -> "bounds"
  | Overflow _ -> "overflow"
  | Fault_exhausted _ -> "fault_exhausted"
  | Watchdog _ -> "watchdog"
  | Invalid _ -> "invalid"
  | Timeout _ -> "timeout"
  | Overloaded _ -> "overloaded"

let conflict_to_string c =
  let verb, prev =
    match c.kind with
    | `Write_read -> ("write", "read")
    | `Write_write -> ("write", "write")
    | `Read_write -> ("read", "write")
  in
  Printf.sprintf "%s of %s[%d] during [%.3g, %.3g] overlaps %s during [%.3g, %.3g]"
    verb c.buffer c.copy c.op_start c.op_finish prev c.prev_start c.prev_finish

let race_to_string r =
  Printf.sprintf "CPE(%d,%d): %s" r.rid r.cid (conflict_to_string r.conflict)

(* Deterministic order: by CPE coordinates, then buffer/copy, then time. *)
let compare_race a b =
  let key r = (r.rid, r.cid, r.conflict.buffer, r.conflict.copy, r.conflict.op_start) in
  compare (key a) (key b)

let blocked_to_string b =
  Printf.sprintf "%s awaiting %s >= %d (currently %d), parked at t=%.6gs" b.fiber
    b.counter b.awaited b.current b.parked_at

let diagnosis_to_string d =
  Printf.sprintf "deadlock at t=%.6gs after %d event(s), %d fiber(s) blocked:\n%s"
    d.sim_time d.events_run
    (List.length d.fibers)
    (String.concat "\n"
       (List.map (fun b -> "  " ^ blocked_to_string b) d.fibers))

let to_string = function
  | Deadlock d -> diagnosis_to_string d
  | Race rs ->
      Printf.sprintf "%d race(s) detected:\n%s" (List.length rs)
        (String.concat "\n" (List.map (fun r -> "  " ^ race_to_string r) rs))
  | Bounds { array_name; detail } ->
      Printf.sprintf "out-of-bounds access to %s: %s" array_name detail
  | Overflow { buffer; needed; available; capacity } ->
      Printf.sprintf
        "SPM overflow: %s needs %d bytes but only %d of %d remain" buffer needed
        available capacity
  | Fault_exhausted { fiber; counter; retries; sim_time } ->
      Printf.sprintf
        "fault_exhausted: %s: wait on %s still unsatisfied after %d retr%s \
         at t=%.6gs"
        fiber counter retries
        (if retries = 1 then "y" else "ies")
        sim_time
  | Watchdog { limit; sim_time; events_run } ->
      let l =
        match limit with
        | `Sim_time s -> Printf.sprintf "simulated-time budget %.6gs" s
        | `Events n -> Printf.sprintf "event budget %d" n
      in
      Printf.sprintf "watchdog: %s exceeded at t=%.6gs after %d event(s)" l
        sim_time events_run
  | Invalid s -> "invalid: " ^ s
  | Timeout { stage; elapsed_s; deadline_s } ->
      Printf.sprintf
        "timeout: %s exceeded the %.3gs request deadline (elapsed %.3gs)"
        stage deadline_s elapsed_s
  | Overloaded { in_flight; queued; limit } ->
      Printf.sprintf
        "overloaded: %d request(s) in flight and %d queued (queue limit \
         %d); request shed"
        in_flight queued limit

let () =
  Printexc.register_printer (function
    | Sim_error e -> Some ("Sw_arch.Error.Sim_error: " ^ to_string e)
    | _ -> None)
