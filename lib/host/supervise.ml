(* Supervised execution of host-side requests: deadlines, bounded retry
   with exponential backoff + jitter, a per-shape-class circuit breaker,
   and admission control.

   Everything typed: every refusal is an Sw_arch.Error value (Timeout,
   Overloaded, Circuit_open), so callers and harnesses match on the cause.
   The clock and the sleeper are injectable — the qcheck properties drive
   a fake clock and prove the state machine without wall-clock waits.

   Deadlines are cooperative: work receives a token and calls [checkpoint]
   at natural boundaries (the compile pipeline checks after every pass and
   around store I/O). A wedged section between checkpoints cannot be
   preempted, but the next checkpoint — and the admission wait loop — and
   completion all notice an expired deadline, so a supervised request
   always resolves.

   Breaker determinism under parallel fan-outs: [map] freezes each class's
   verdict at region entry and applies task outcomes to the breaker at the
   barrier in input order, so results and final breaker state are
   identical for every pool width. *)

type policy = {
  deadline_s : float option;
  max_attempts : int;
  backoff_base_s : float;
  backoff_max_s : float;
  jitter_frac : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  max_in_flight : int;
  max_queued : int;
}

let default_policy =
  {
    deadline_s = None;
    max_attempts = 3;
    backoff_base_s = 0.010;
    backoff_max_s = 1.0;
    jitter_frac = 0.25;
    breaker_threshold = 5;
    breaker_cooldown_s = 5.0;
    max_in_flight = 64;
    max_queued = 256;
  }

type breaker_state = Closed | Open_until of float | Half_open

type breaker = { mutable state : breaker_state; mutable failures : int }

type t = {
  policy : policy;
  now : unit -> float;
  sleep : float -> unit;
  mutex : Mutex.t;
  mutable in_flight : int;
  mutable queued : int;
  breakers : (string, breaker) Hashtbl.t;
  rng_mutex : Mutex.t;
  rng : Random.State.t;
}

type token = {
  owner : t;
  start : float;
  deadline_s : float option;
  mutable stage : string;
}

let validate_policy p =
  if p.max_attempts < 1 then
    invalid_arg "Supervise: max_attempts must be >= 1";
  if p.max_in_flight < 1 then
    invalid_arg "Supervise: max_in_flight must be >= 1";
  if p.max_queued < 0 then invalid_arg "Supervise: max_queued must be >= 0";
  (match p.deadline_s with
  | Some d when d <= 0.0 -> invalid_arg "Supervise: deadline_s must be positive"
  | _ -> ())

let create ?(policy = default_policy) ?(seed = 0)
    ?(now = Unix.gettimeofday) ?(sleep = Unix.sleepf) () =
  validate_policy policy;
  {
    policy;
    now;
    sleep;
    mutex = Mutex.create ();
    in_flight = 0;
    queued = 0;
    breakers = Hashtbl.create 8;
    rng_mutex = Mutex.create ();
    rng = Random.State.make [| 0x5e7a; seed |];
  }

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)
(* ------------------------------------------------------------------ *)

let token ?deadline_s t ~stage =
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> t.policy.deadline_s
  in
  { owner = t; start = t.now (); deadline_s; stage }

let elapsed tok = tok.owner.now () -. tok.start

let checkpoint ?stage tok =
  (match stage with Some s -> tok.stage <- s | None -> ());
  match tok.deadline_s with
  | None -> Ok ()
  | Some d ->
      let e = elapsed tok in
      if e > d then begin
        Sw_obs.Metrics.incr_a "supervise.timeouts_total";
        Error
          (Sw_arch.Error.Timeout
             { stage = tok.stage; elapsed_s = e; deadline_s = d })
      end
      else Ok ()

let expired tok =
  match tok.deadline_s with None -> false | Some d -> elapsed tok > d

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)
(* ------------------------------------------------------------------ *)

(* Bounded queue with a deadline-aware poll-wait: a Condition alone cannot
   time out, and "deadlines always fire" matters more here than wakeup
   latency (the slice is 1 ms of the injected sleeper, so fake clocks can
   drive it deterministically). *)
let admit_poll_s = 0.001

let set_load_gauges ~in_flight ~queued =
  Sw_obs.Metrics.set_a "supervise.in_flight" (float_of_int in_flight);
  Sw_obs.Metrics.set_a "supervise.queue_depth" (float_of_int queued)

let try_admit t =
  Mutex.lock t.mutex;
  let r =
    if t.in_flight < t.policy.max_in_flight then begin
      t.in_flight <- t.in_flight + 1;
      Ok `Admitted
    end
    else if t.queued >= t.policy.max_queued then
      Error
        (Sw_arch.Error.Overloaded
           {
             in_flight = t.in_flight;
             queued = t.queued;
             limit = t.policy.max_queued;
           })
    else begin
      t.queued <- t.queued + 1;
      Ok `Queued
    end
  in
  let inf = t.in_flight and q = t.queued in
  Mutex.unlock t.mutex;
  set_load_gauges ~in_flight:inf ~queued:q;
  r

let admit t tok =
  match try_admit t with
  | Error e ->
      Sw_obs.Metrics.incr_a "supervise.shed_total";
      Sw_obs.Log.warn ~scope:"supervise" "admission.shed"
        [ ("error", Sw_obs.Log.S (Sw_arch.Error.to_string e)) ];
      Error e
  | Ok `Admitted -> Ok ()
  | Ok `Queued ->
      let rec wait () =
        if expired tok then begin
          Mutex.lock t.mutex;
          t.queued <- t.queued - 1;
          let inf = t.in_flight and q = t.queued in
          Mutex.unlock t.mutex;
          set_load_gauges ~in_flight:inf ~queued:q;
          Sw_obs.Metrics.incr_a "supervise.timeouts_total";
          Error
            (Sw_arch.Error.Timeout
               {
                 stage = "admission";
                 elapsed_s = elapsed tok;
                 deadline_s = Option.get tok.deadline_s;
               })
        end
        else begin
          Mutex.lock t.mutex;
          let admitted =
            if t.in_flight < t.policy.max_in_flight then begin
              t.in_flight <- t.in_flight + 1;
              t.queued <- t.queued - 1;
              true
            end
            else false
          in
          let inf = t.in_flight and q = t.queued in
          Mutex.unlock t.mutex;
          if admitted then begin
            set_load_gauges ~in_flight:inf ~queued:q;
            Ok ()
          end
          else begin
            t.sleep admit_poll_s;
            wait ()
          end
        end
      in
      wait ()

let release t =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  let inf = t.in_flight and q = t.queued in
  Mutex.unlock t.mutex;
  set_load_gauges ~in_flight:inf ~queued:q

let in_flight t =
  Mutex.lock t.mutex;
  let n = t.in_flight in
  Mutex.unlock t.mutex;
  n

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                      *)
(* ------------------------------------------------------------------ *)

let state_gauge = function
  | Closed -> 0.0
  | Half_open -> 1.0
  | Open_until _ -> 2.0

let state_name = function
  | Closed -> "closed"
  | Half_open -> "half_open"
  | Open_until _ -> "open"

(* Emitted outside the supervisor mutex: a breaker.open flight dump
   writes a file and must not extend the breaker critical section. *)
let note_transition class_ ~before ~after ~failures =
  Sw_obs.Metrics.set_a
    ~labels:[ ("class", class_) ]
    "supervise.breaker_state" (state_gauge after);
  let fields =
    [
      ("class", Sw_obs.Log.S class_);
      ("from", Sw_obs.Log.S (state_name before));
      ("to", Sw_obs.Log.S (state_name after));
      ("failures", Sw_obs.Log.I failures);
    ]
  in
  match after with
  | Open_until _ ->
      Sw_obs.Log.warn ~scope:"supervise" "breaker.open" fields;
      if Sw_obs.Flight.enabled () then begin
        Sw_obs.Flight.record ~kind:"breaker"
          (Sw_obs.Json.Obj
             [
               ("class", Sw_obs.Json.String class_);
               ("from", Sw_obs.Json.String (state_name before));
               ("to", Sw_obs.Json.String (state_name after));
               ("failures", Sw_obs.Json.Int failures);
             ]);
        ignore (Sw_obs.Flight.trigger ~reason:"breaker.open")
      end
  | Half_open -> Sw_obs.Log.info ~scope:"supervise" "breaker.half_open" fields
  | Closed -> Sw_obs.Log.info ~scope:"supervise" "breaker.close" fields

let breaker_of t class_ =
  match Hashtbl.find_opt t.breakers class_ with
  | Some b -> b
  | None ->
      let b = { state = Closed; failures = 0 } in
      Hashtbl.add t.breakers class_ b;
      b

(* May a request of this class proceed right now? An open breaker whose
   cooldown has elapsed transitions to Half_open and lets one probe in. *)
let breaker_check t class_ =
  Mutex.lock t.mutex;
  let b = breaker_of t class_ in
  let transition = ref None in
  let r =
    match b.state with
    | Closed | Half_open -> Ok ()
    | Open_until until ->
        let now = t.now () in
        if now >= until then begin
          b.state <- Half_open;
          transition := Some (Open_until until, Half_open, b.failures);
          Ok ()
        end
        else begin
          Sw_obs.Metrics.incr_a "supervise.breaker_rejects_total";
          Error
            (Sw_arch.Error.Circuit_open
               {
                 shape_class = class_;
                 failures = b.failures;
                 cooldown_s = until -. now;
               })
        end
  in
  Mutex.unlock t.mutex;
  (match !transition with
  | Some (before, after, failures) ->
      note_transition class_ ~before ~after ~failures
  | None -> ());
  r

let breaker_note t class_ ~ok =
  Mutex.lock t.mutex;
  let b = breaker_of t class_ in
  let before = b.state in
  (if ok then begin
     b.failures <- 0;
     b.state <- Closed
   end
   else begin
     b.failures <- b.failures + 1;
     match b.state with
     | Half_open ->
         (* the probe failed: back to open for a fresh cooldown *)
         b.state <- Open_until (t.now () +. t.policy.breaker_cooldown_s);
         Sw_obs.Metrics.incr_a "supervise.breaker_trips_total"
     | Closed when
         t.policy.breaker_threshold > 0
         && b.failures >= t.policy.breaker_threshold ->
         b.state <- Open_until (t.now () +. t.policy.breaker_cooldown_s);
         Sw_obs.Metrics.incr_a "supervise.breaker_trips_total"
     | Closed | Open_until _ -> ()
   end);
  let after = b.state and failures = b.failures in
  Mutex.unlock t.mutex;
  (* Open_until t1 -> Open_until t2 is "still open", not a transition *)
  if state_name before <> state_name after then
    note_transition class_ ~before ~after ~failures

let breaker_state t class_ =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.breakers class_ with
    | None | Some { state = Closed; _ } -> `Closed
    | Some { state = Open_until _; _ } -> `Open
    | Some { state = Half_open; _ } -> `Half_open
  in
  Mutex.unlock t.mutex;
  r

(* ------------------------------------------------------------------ *)
(* Retry loop                                                           *)
(* ------------------------------------------------------------------ *)

let backoff t ~attempt =
  let base =
    t.policy.backoff_base_s *. (2.0 ** float_of_int (attempt - 1))
  in
  let capped = Float.min t.policy.backoff_max_s base in
  let u =
    Mutex.lock t.rng_mutex;
    let u = Random.State.float t.rng 1.0 in
    Mutex.unlock t.rng_mutex;
    u
  in
  capped *. (1.0 +. (t.policy.jitter_frac *. u))

(* The attempt loop of [run]: deadline checks before each attempt, bounded
   retries for retryable errors, backoff between them. *)
let attempts t ?deadline_s work =
  let tok = token ?deadline_s t ~stage:"request" in
  let rec go attempt =
    Crash.hit "supervise.attempt";
    match checkpoint ~stage:"attempt" tok with
    | Error e -> Error e
    | Ok () -> (
        match work tok with
        | Ok v -> Ok v
        | Error e ->
            if
              Sw_arch.Error.retryable e
              && attempt < t.policy.max_attempts
              && not (expired tok)
            then begin
              Sw_obs.Metrics.incr_a "supervise.retries_total";
              let delay = backoff t ~attempt in
              Sw_obs.Metrics.observe_a "supervise.backoff_seconds" delay;
              Sw_obs.Log.info ~scope:"supervise" "retry"
                [
                  ("attempt", Sw_obs.Log.I attempt);
                  ("backoff_s", Sw_obs.Log.F delay);
                  ("error", Sw_obs.Log.S (Sw_arch.Error.class_of e));
                ];
              t.sleep delay;
              go (attempt + 1)
            end
            else Error e)
  in
  go 1

let run t ?shape_class ?deadline_s work =
  let tok0 = token ?deadline_s t ~stage:"admission" in
  match admit t tok0 with
  | Error e -> Error e
  | Ok () ->
      Fun.protect ~finally:(fun () -> release t) @@ fun () ->
      let class_ = Option.value shape_class ~default:"default" in
      let class_verdict =
        match shape_class with None -> Ok () | Some c -> breaker_check t c
      in
      (match class_verdict with
      | Error e -> Error e
      | Ok () ->
          let r =
            attempts t ?deadline_s:tok0.deadline_s (fun tok ->
                (* the request's clock started at admission, not at the
                   attempt: total latency is what the deadline bounds *)
                work { tok with start = tok0.start })
          in
          (match shape_class with
          | Some _ -> breaker_note t class_ ~ok:(Result.is_ok r)
          | None -> ());
          r)
