type watchdog = { max_sim_s : float option; max_events : int option }

let no_watchdog = { max_sim_s = None; max_events = None }

(* A parked fiber's counter (by id), awaited value and park time, and its
   deadline: the seq of its live deadline event, -1 for none, -2 when the
   last one expired. *)
type fiber = {
  label : string;
  mutable counter : int;
  mutable target : int;
  mutable parked_at : float;
  mutable deadline : int;
}

(* A float-only record stores its field flat: setting the clock allocates
   nothing. *)
type clock = { mutable now : float }

(* The queue is three structures, each in (time, seq) order: a FIFO ring
   of the events due at the current instant, a FIFO lane of later events
   that arrived in time order, and a binary min-heap on (time, seq), one
   array per key, for the rest. Ring and lane cost no sift. An event's
   tag holds its kind in the low two bits (0: resume a fiber, 1: a
   fiber's deadline, 2: increment a counter, 3: a client event) and its
   argument above them. *)
type t = {
  clock : clock;
  mutable seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable tags : int array;
  mutable size : int;
  mutable ring_seqs : int array;
  mutable ring_tags : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable lane_times : float array;
  mutable lane_seqs : int array;
  mutable lane_tags : int array;
  mutable lane_head : int;
  mutable lane_len : int;
  mutable fibers : fiber array;
  mutable nfibers : int;
  mutable counters : counter array;  (* registry, by id *)
  mutable ncounters : int;
  mutable watchdog : watchdog;
  mutable events_run : int;
  mutable lane_run : int;  (* of [events_run], those the lane served *)
  mutable heap_run : int;  (* and those the heap served *)
  (* resolved once at creation from the ambient registry: all events, then
     those of ring, lane and heap *)
  m_events : (Sw_obs.Metrics.counter * Sw_obs.Metrics.counter array) option;
}

(* [waiters] holds the first [nwaiters] parked fibers in park order;
   [low] is the smallest target among them ([max_int] for none), below
   which an increment wakes nobody. *)
and counter = {
  eng : t;
  id : int;
  cname : string;
  mutable value : int;
  mutable waiters : int array;
  mutable nwaiters : int;
  mutable low : int;
}

let create () =
  {
    clock = { now = 0.0 };
    seq = 0;
    times = [||];
    seqs = [||];
    tags = [||];
    size = 0;
    ring_seqs = [||];
    ring_tags = [||];
    ring_head = 0;
    ring_len = 0;
    lane_times = [||];
    lane_seqs = [||];
    lane_tags = [||];
    lane_head = 0;
    lane_len = 0;
    fibers = [||];
    nfibers = 0;
    counters = [||];
    ncounters = 0;
    watchdog = no_watchdog;
    events_run = 0;
    lane_run = 0;
    heap_run = 0;
    m_events =
      Option.map
        (fun r ->
          let queue q =
            Sw_obs.Metrics.counter r ~labels:[ ("queue", q) ] "sim.queue_events_total"
          in
          ( Sw_obs.Metrics.counter r "sim.events_total",
            [| queue "ring"; queue "lane"; queue "heap" |] ))
        (Sw_obs.Metrics.current ());
  }

let[@inline] now t = t.clock.now
let set_watchdog t w = t.watchdog <- w

(* Set element [n] of [a] to [x], doubling [a] when it is full. *)
let set_grow a n x =
  let a = if n < Array.length a then a else Array.append a (Array.make (max 8 n) x) in
  a.(n) <- x;
  a

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.tags.(dst) <- t.tags.(src)

let invalid fmt =
  Printf.ksprintf (fun s -> raise (Error.Sim_error (Error.Invalid s))) fmt

(* A full circular buffer of capacity [cap] (a power of two) from [head],
   unrolled into an array twice the size. *)
let unroll a ~head ~cap zero =
  Array.init (max 8 (2 * cap)) (fun i ->
      if i < cap then a.((head + i) land (cap - 1)) else zero)

(* Append to the ring, whose capacity is a power of two, unrolling it when
   it is full. *)
let ring_push t tag =
  let cap = Array.length t.ring_seqs in
  if t.ring_len = cap then begin
    t.ring_seqs <- unroll t.ring_seqs ~head:t.ring_head ~cap 0;
    t.ring_tags <- unroll t.ring_tags ~head:t.ring_head ~cap 0;
    t.ring_head <- 0
  end;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring_seqs - 1) in
  t.ring_seqs.(i) <- t.seq;
  t.ring_tags.(i) <- tag;
  t.ring_len <- t.ring_len + 1

(* Append to the lane, as [ring_push] does to the ring. Inlined, as
   [heap_push] is, so the event's time stays an unboxed float. *)
let[@inline] lane_push t at tag =
  let cap = Array.length t.lane_seqs in
  if t.lane_len = cap then begin
    t.lane_times <- unroll t.lane_times ~head:t.lane_head ~cap 0.0;
    t.lane_seqs <- unroll t.lane_seqs ~head:t.lane_head ~cap 0;
    t.lane_tags <- unroll t.lane_tags ~head:t.lane_head ~cap 0;
    t.lane_head <- 0
  end;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_seqs - 1) in
  t.lane_times.(i) <- at;
  t.lane_seqs.(i) <- t.seq;
  t.lane_tags.(i) <- tag;
  t.lane_len <- t.lane_len + 1

(* The time of the lane's last event; the lane is not empty. *)
let[@inline] lane_tail t =
  t.lane_times.((t.lane_head + t.lane_len - 1) land (Array.length t.lane_seqs - 1))

(* Inlined at every call, so the event's time stays an unboxed float. *)
let[@inline] heap_push t at tag =
  if t.size = Array.length t.times then begin
    t.times <- set_grow t.times t.size at;
    t.seqs <- set_grow t.seqs t.size 0;
    t.tags <- set_grow t.tags t.size 0
  end;
  (* sift the hole up from the end *)
  let i = ref t.size in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    at < t.times.(p) || (at = t.times.(p) && t.seq < t.seqs.(p))
  do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  t.times.(!i) <- at;
  t.seqs.(!i) <- t.seq;
  t.tags.(!i) <- tag;
  t.size <- t.size + 1

(* An event due now goes to the ring: every queued event is due at or
   after now, so the ring's events stay due at the clock until they run.
   A later one goes to the lane when it is due no earlier than the lane's
   last event, so the lane stays in (time, seq) order as seqs rise, and
   to the heap otherwise. *)
let[@inline] push t at tag =
  if at < t.clock.now then
    invalid "Engine: scheduling into the past (%.6g < %.6g)" at t.clock.now;
  t.seq <- t.seq + 1;
  if at = t.clock.now then ring_push t tag
  else if t.lane_len = 0 || at >= lane_tail t then lane_push t at tag
  else heap_push t at tag

let[@inline] before t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

(* Remove the root: sift the hole down from the top and fill it with the
   last entry. *)
let pop t =
  let n = t.size - 1 in
  t.size <- n;
  let i = ref 0 in
  while
    let l = (2 * !i) + 1 in
    l < n
    &&
    let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
    before t c n
    &&
    (move t ~src:c ~dst:!i;
     i := c;
     true)
  do
    ()
  done;
  move t ~src:n ~dst:!i

let spawn ?label t =
  let fid = t.nfibers in
  let label =
    match label with Some l -> l | None -> Printf.sprintf "fiber-%d" fid
  in
  let f = { label; counter = -1; target = 0; parked_at = 0.0; deadline = -1 } in
  t.fibers <- set_grow t.fibers fid f;
  t.nfibers <- fid + 1;
  push t t.clock.now (fid lsl 2);
  fid

let delay t fid d = d > 0.0 && (push t (t.clock.now +. d) (fid lsl 2); true)
let timed_out t fid = t.fibers.(fid).deadline = -2

let new_counter ?name t =
  let id = t.ncounters in
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "counter-%d" id
  in
  let c =
    { eng = t; id; cname; value = 0; waiters = [||]; nwaiters = 0; low = max_int }
  in
  t.counters <- set_grow t.counters id c;
  t.ncounters <- id + 1;
  c

(* Keep, in order, the waiters other than [drop] still short of [value],
   and their smallest target. *)
let filter_waiters t c ~drop ~value =
  let j = ref 0 and low = ref max_int in
  for i = 0 to c.nwaiters - 1 do
    let fid = c.waiters.(i) in
    let target = t.fibers.(fid).target in
    if fid <> drop && value < target then begin
      c.waiters.(!j) <- fid;
      incr j;
      if target < !low then low := target
    end
  done;
  c.nwaiters <- !j;
  c.low <- !low

let await ?timeout t fid c n =
  let f = t.fibers.(fid) in
  f.deadline <- -1;
  c.value < n
  && begin
       f.counter <- c.id;
       f.target <- n;
       f.parked_at <- t.clock.now;
       c.waiters <- set_grow c.waiters c.nwaiters fid;
       c.nwaiters <- c.nwaiters + 1;
       if n < c.low then c.low <- n;
       (match timeout with
       | None -> ()
       | Some timeout ->
           (* the deadline's seq is its generation: waking the fiber
              clears it, so the event, still queued, finds it stale *)
           f.deadline <- t.seq + 1;
           push t (t.clock.now +. timeout) ((fid lsl 2) lor 1));
       true
     end

(* Deadline [seq] of [fid] fires: if still live, unpark the fiber. *)
let expire t fid seq =
  let f = t.fibers.(fid) in
  f.deadline = seq
  && begin
       f.deadline <- -2;
       filter_waiters t t.counters.(f.counter) ~drop:fid ~value:min_int;
       true
     end

let counter_reset c =
  if c.nwaiters > 0 then
    invalid "Engine.counter_reset: %s has live waiters" c.cname;
  c.value <- 0

(* Wake every satisfied waiter, newest first, and keep the rest in park
   order. Below the lowest target nobody is satisfied: a barrier's
   arrivals before the last cost no scan. *)
let counter_incr c =
  c.value <- c.value + 1;
  let t = c.eng and v = c.value in
  if v >= c.low then begin
    for i = c.nwaiters - 1 downto 0 do
      let f = t.fibers.(c.waiters.(i)) in
      if v >= f.target then begin
        f.deadline <- -1;
        push t t.clock.now (c.waiters.(i) lsl 2)
      end
    done;
    filter_waiters t c ~drop:(-1) ~value:v
  end

let incr_after t c ~after = push t (t.clock.now +. after) ((c.id lsl 2) lor 2)

type barrier = { parties : int; arrivals : counter }

let new_barrier ?(name = "barrier") t ~parties =
  { parties; arrivals = new_counter ~name t }

let barrier_wait t fid b =
  let n = b.arrivals.value + 1 in
  let round = ((n - 1) / b.parties) + 1 in
  counter_incr b.arrivals;
  await t fid b.arrivals (round * b.parties)

type channel = {
  bw : float;
  latency : float;
  mutable busy_until : float;
  mutable start : float;
  mutable finish : float;
}

let new_channel ~bw_bytes_per_s:bw ~latency_s:latency =
  { bw; latency; busy_until = 0.0; start = 0.0; finish = 0.0 }

let transfer ?faults t ch ~bytes ~event =
  let dur = float_of_int bytes /. ch.bw in
  let dur =
    match faults with
    | None -> dur
    | Some f ->
        let p = Fault.channel_perturb f in
        p.Fault.stall_s +. (dur *. p.Fault.slowdown)
  in
  ch.start <- (if t.clock.now >= ch.busy_until then t.clock.now else ch.busy_until);
  ch.busy_until <- ch.start +. dur;
  ch.finish <- ch.busy_until +. ch.latency;
  push t ch.finish ((event lsl 2) lor 3)

(* Quiescence report: every fiber still parked, counters and each one's
   waiters newest first, then sorted (stably) by fiber and counter. *)
let blocked_fibers t =
  let acc = ref [] in
  for id = 0 to t.ncounters - 1 do
    let c = t.counters.(id) in
    for i = 0 to c.nwaiters - 1 do
      let f = t.fibers.(c.waiters.(i)) in
      acc :=
        {
          Error.fiber = f.label;
          counter = c.cname;
          current = c.value;
          awaited = f.target;
          parked_at = f.parked_at;
        }
        :: !acc
    done
  done;
  List.stable_sort
    (fun (a : Error.blocked) b ->
      compare (a.Error.fiber, a.Error.counter) (b.Error.fiber, b.Error.counter))
    !acc

let trip t limit =
  raise
    (Error.Sim_error
       (Error.Watchdog { limit; sim_time = t.clock.now; events_run = t.events_run }))

let check_watchdog t =
  let w = t.watchdog in
  (match w.max_events with Some n when t.events_run > n -> trip t (`Events n) | _ -> ());
  match w.max_sim_s with Some s when t.clock.now > s -> trip t (`Sim_time s) | _ -> ()

(* Whether the lane's head runs before the heap's root; the lane is not
   empty. *)
let[@inline] lane_first t =
  t.size = 0
  ||
  let h = t.lane_head in
  t.lane_times.(h) < t.times.(0)
  || (t.lane_times.(h) = t.times.(0) && t.lane_seqs.(h) < t.seqs.(0))

let run t ~resume ~event =
  let events_at_entry = t.events_run
  and lane_at_entry = t.lane_run
  and heap_at_entry = t.heap_run in
  let guarded = t.watchdog <> no_watchdog in
  while t.size > 0 || t.ring_len > 0 || t.lane_len > 0 do
    (* the smallest (time, seq) of the three heads: the smaller of the
       lane's head and the heap's root, unless the ring's head, which is
       due now, is smaller still *)
    let from_lane = t.lane_len > 0 && lane_first t in
    let h = t.ring_head and l = t.lane_head in
    let from_ring =
      t.ring_len > 0
      &&
      if from_lane then t.lane_times.(l) > t.clock.now || t.lane_seqs.(l) > t.ring_seqs.(h)
      else t.size = 0 || t.times.(0) > t.clock.now || t.seqs.(0) > t.ring_seqs.(h)
    in
    let seq =
      if from_ring then t.ring_seqs.(h)
      else if from_lane then t.lane_seqs.(l)
      else t.seqs.(0)
    and tag =
      if from_ring then t.ring_tags.(h)
      else if from_lane then t.lane_tags.(l)
      else t.tags.(0)
    in
    if from_ring then begin
      t.ring_head <- (h + 1) land (Array.length t.ring_seqs - 1);
      t.ring_len <- t.ring_len - 1
    end
    else if from_lane then begin
      t.clock.now <- t.lane_times.(l);
      t.lane_head <- (l + 1) land (Array.length t.lane_seqs - 1);
      t.lane_len <- t.lane_len - 1;
      t.lane_run <- t.lane_run + 1
    end
    else begin
      t.clock.now <- t.times.(0);
      pop t;
      t.heap_run <- t.heap_run + 1
    end;
    t.events_run <- t.events_run + 1;
    if guarded then check_watchdog t;
    let arg = tag lsr 2 in
    match tag land 3 with
    | 0 -> resume arg
    | 1 -> if expire t arg seq then resume arg
    | 2 -> counter_incr t.counters.(arg)
    | _ -> event arg
  done;
  Option.iter
    (fun (all, queues) ->
      let events = t.events_run - events_at_entry
      and lane = t.lane_run - lane_at_entry
      and heap = t.heap_run - heap_at_entry in
      Sw_obs.Metrics.incr ~by:events all;
      Sw_obs.Metrics.incr ~by:(events - lane - heap) queues.(0);
      Sw_obs.Metrics.incr ~by:lane queues.(1);
      Sw_obs.Metrics.incr ~by:heap queues.(2))
    t.m_events;
  let fibers = blocked_fibers t in
  if fibers <> [] then
    raise
      (Error.Sim_error
         (Error.Deadlock
            { sim_time = t.clock.now; events_run = t.events_run; fibers }));
  t.clock.now
