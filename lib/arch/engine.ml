(* Binary min-heap on (time, seq) keys, specialized to event closures so
   popped slots can be cleared: a generic heap would keep completed fiber
   closures (and everything they capture) reachable through the unused tail
   of the backing array for the whole run. *)
module Heap = struct
  type entry = { time : float; seq : int; payload : unit -> unit }

  type t = { mutable data : entry array; mutable size : int }

  let dummy = { time = neg_infinity; seq = min_int; payload = ignore }

  let create () = { data = [||]; size = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.size = Array.length h.data then begin
      let cap = max 64 (2 * h.size) in
      let data = Array.make cap dummy in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    (* sift up *)
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less h.data.(!i) h.data.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        (* sift down *)
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
          if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            let tmp = h.data.(!smallest) in
            h.data.(!smallest) <- h.data.(!i);
            h.data.(!i) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      (* clear the vacated slot so the popped closure is collectable, and
         shrink at quarter occupancy to bound the high-water footprint *)
      h.data.(h.size) <- dummy;
      let cap = Array.length h.data in
      if cap > 64 && h.size <= cap / 4 then begin
        let data = Array.make (cap / 2) dummy in
        Array.blit h.data 0 data 0 h.size;
        h.data <- data
      end;
      Some top
    end
end

type watchdog = {
  max_sim_s : float option;
  max_events : int option;
  max_host_s : float option;
}

let no_watchdog = { max_sim_s = None; max_events = None; max_host_s = None }

type t = {
  mutable clock : float;
  mutable seq : int;
  heap : Heap.t;
  mutable blocked : int;  (* fibers parked on counters/barriers *)
  mutable counters : counter list;  (* registry, for deadlock forensics *)
  mutable ncounters : int;
  mutable watchdog : watchdog;
  mutable events_run : int;
  mutable host_start : float;
  (* instruments resolved once at creation from the ambient registry, so
     the per-event cost when metrics are on is one observation and when
     off a single match on None *)
  m_queue_depth : Sw_obs.Metrics.histogram option;
  m_events : Sw_obs.Metrics.counter option;
}

and counter = {
  eng : t;
  cname : string;
  mutable value : int;
  mutable waiters : waiter list;
}

and waiter = {
  target : int;
  label : string;  (* identity of the parked fiber *)
  parked_at : float;
  resume : unit -> unit;
  mutable woken : bool;  (* set on wake or timeout: at most one resume *)
}

let create () =
  {
    clock = 0.0;
    seq = 0;
    heap = Heap.create ();
    blocked = 0;
    counters = [];
    ncounters = 0;
    watchdog = no_watchdog;
    events_run = 0;
    host_start = 0.0;
    m_queue_depth =
      Option.map
        (fun r ->
          Sw_obs.Metrics.histogram r ~lower:1.0 ~growth:2.0 ~buckets:24
            "sim.queue_depth")
        (Sw_obs.Metrics.current ());
    m_events =
      Option.map
        (fun r -> Sw_obs.Metrics.counter r "sim.events_total")
        (Sw_obs.Metrics.current ());
  }

let now t = t.clock

let set_watchdog t w = t.watchdog <- w

let push t ~at payload =
  if at < t.clock then
    raise
      (Error.Sim_error
         (Error.Invalid
            (Printf.sprintf "Engine: scheduling into the past (%.6g < %.6g)" at
               t.clock)));
  t.seq <- t.seq + 1;
  Heap.push t.heap { Heap.time = at; seq = t.seq; payload };
  match t.m_queue_depth with
  | None -> ()
  | Some h -> Sw_obs.Metrics.observe h (float_of_int t.heap.Heap.size)

let schedule t ~after f = push t ~at:(t.clock +. after) f

(* Effects performed by fibers. *)
type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Await : (counter * int) -> unit Effect.t
  | Await_deadline : (counter * int * float) -> bool Effect.t

let delay d = if d > 0.0 then Effect.perform (Delay d)

let await c n = if c.value < n then Effect.perform (Await (c, n))

let await_deadline c n ~timeout =
  if c.value >= n then true else Effect.perform (Await_deadline (c, n, timeout))

let exec t ~label f =
  let open Effect.Deep in
  try_with f ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (a, _) continuation) ->
                  push t ~at:(t.clock +. d) (fun () -> continue k ()))
          | Await (c, n) ->
              Some
                (fun (k : (a, _) continuation) ->
                  if c.value >= n then continue k ()
                  else begin
                    t.blocked <- t.blocked + 1;
                    c.waiters <-
                      {
                        target = n;
                        label;
                        parked_at = t.clock;
                        resume = (fun () -> continue k ());
                        woken = false;
                      }
                      :: c.waiters
                  end)
          | Await_deadline (c, n, timeout) ->
              Some
                (fun (k : (a, _) continuation) ->
                  if c.value >= n then continue k true
                  else begin
                    let w =
                      {
                        target = n;
                        label;
                        parked_at = t.clock;
                        resume = (fun () -> continue k true);
                        woken = false;
                      }
                    in
                    t.blocked <- t.blocked + 1;
                    c.waiters <- w :: c.waiters;
                    push t ~at:(t.clock +. timeout) (fun () ->
                        if not w.woken then begin
                          w.woken <- true;
                          c.waiters <- List.filter (fun w' -> w' != w) c.waiters;
                          t.blocked <- t.blocked - 1;
                          continue k false
                        end)
                  end)
          | _ -> None);
    }

let spawn ?label t f =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "fiber-%d" t.seq
  in
  push t ~at:t.clock (fun () -> exec t ~label f)

(* Quiescence report: every fiber still parked on a registered counter. *)
let blocked_fibers t =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun w ->
          if w.woken then None
          else
            Some
              {
                Error.fiber = w.label;
                counter = c.cname;
                current = c.value;
                awaited = w.target;
                parked_at = w.parked_at;
              })
        c.waiters)
    t.counters
  |> List.sort (fun (a : Error.blocked) b ->
         compare (a.Error.fiber, a.Error.counter) (b.Error.fiber, b.Error.counter))

let check_watchdog t =
  let w = t.watchdog in
  (match w.max_events with
  | Some n when t.events_run > n ->
      raise
        (Error.Sim_error
           (Error.Watchdog
              { limit = `Events n; sim_time = t.clock; events_run = t.events_run }))
  | _ -> ());
  (match w.max_sim_s with
  | Some s when t.clock > s ->
      raise
        (Error.Sim_error
           (Error.Watchdog
              { limit = `Sim_time s; sim_time = t.clock; events_run = t.events_run }))
  | _ -> ());
  match w.max_host_s with
  | Some s when t.events_run land 4095 = 0 && Sys.time () -. t.host_start > s ->
      raise
        (Error.Sim_error
           (Error.Watchdog
              { limit = `Host_time s; sim_time = t.clock; events_run = t.events_run }))
  | _ -> ()

let armed w = w.max_sim_s <> None || w.max_events <> None || w.max_host_s <> None

let run t =
  t.host_start <- Sys.time ();
  let events_at_entry = t.events_run in
  let guarded = armed t.watchdog in
  let rec loop () =
    match Heap.pop t.heap with
    | None -> ()
    | Some e ->
        t.clock <- e.Heap.time;
        t.events_run <- t.events_run + 1;
        if guarded then check_watchdog t;
        e.Heap.payload ();
        loop ()
  in
  loop ();
  (match t.m_events with
  | None -> ()
  | Some c -> Sw_obs.Metrics.incr ~by:(t.events_run - events_at_entry) c);
  if t.blocked > 0 then
    raise
      (Error.Sim_error
         (Error.Deadlock
            {
              sim_time = t.clock;
              events_run = t.events_run;
              fibers = blocked_fibers t;
            }));
  t.clock

let new_counter ?name eng =
  let cname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "counter-%d" eng.ncounters
  in
  let c = { eng; cname; value = 0; waiters = [] } in
  eng.counters <- c :: eng.counters;
  eng.ncounters <- eng.ncounters + 1;
  c

let counter_value c = c.value

let counter_reset c =
  if List.exists (fun w -> not w.woken) c.waiters then
    raise
      (Error.Sim_error
         (Error.Invalid
            (Printf.sprintf "Engine.counter_reset: %s has live waiters" c.cname)));
  c.waiters <- [];
  c.value <- 0

let counter_incr c =
  c.value <- c.value + 1;
  let ready, still = List.partition (fun w -> c.value >= w.target) c.waiters in
  c.waiters <- still;
  List.iter
    (fun w ->
      if not w.woken then begin
        w.woken <- true;
        c.eng.blocked <- c.eng.blocked - 1;
        push c.eng ~at:c.eng.clock w.resume
      end)
    ready

type barrier = { parties : int; arrivals : counter }

let new_barrier ?(name = "barrier") t ~parties =
  { parties; arrivals = new_counter ~name t }

let barrier_wait b =
  let n = counter_value b.arrivals + 1 in
  let round = ((n - 1) / b.parties) + 1 in
  counter_incr b.arrivals;
  await b.arrivals (round * b.parties)

type channel = {
  ceng : t;
  bw : float;
  latency : float;
  mutable busy_until : float;
}

let new_channel t ~bw_bytes_per_s ~latency_s =
  { ceng = t; bw = bw_bytes_per_s; latency = latency_s; busy_until = 0.0 }

let transfer ?faults ch ~bytes ~on_complete =
  let t = ch.ceng in
  let dur = float_of_int bytes /. ch.bw in
  let dur =
    match faults with
    | None -> dur
    | Some f ->
        let p = Fault.channel_perturb f in
        p.Fault.stall_s +. (dur *. p.Fault.slowdown)
  in
  let start = Float.max t.clock ch.busy_until in
  let drained = start +. dur in
  ch.busy_until <- drained;
  let finish = drained +. ch.latency in
  push t ~at:finish on_complete;
  (start, finish)
