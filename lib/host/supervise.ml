(* Admission control: a counting gate with a bounded wait queue.

   Every refusal is the typed Sw_arch.Error.Overloaded value, raised
   before any work starts. Queued requests wait on a condition variable
   that [release] signals; one release frees one slot, so one signal is
   enough. A waiter that wakes to find the slot taken by a newcomer waits
   again: that newcomer's own release signals it. *)

type policy = { max_in_flight : int; max_queued : int }

let default_policy = { max_in_flight = 64; max_queued = 256 }

type t = {
  policy : policy;
  mutex : Mutex.t;
  freed : Condition.t;
  mutable in_flight : int;
  mutable queued : int;
}

let create ?(policy = default_policy) () =
  if policy.max_in_flight < 1 then
    invalid_arg "Supervise: max_in_flight must be >= 1";
  if policy.max_queued < 0 then
    invalid_arg "Supervise: max_queued must be >= 0";
  {
    policy;
    mutex = Mutex.create ();
    freed = Condition.create ();
    in_flight = 0;
    queued = 0;
  }

(* Called with [t.mutex] held. *)
let set_load_gauges t =
  Sw_obs.Metrics.set_a "supervise.in_flight" (float_of_int t.in_flight);
  Sw_obs.Metrics.set_a "supervise.queue_depth" (float_of_int t.queued)

let full t = t.in_flight >= t.policy.max_in_flight

let admit t =
  Mutex.lock t.mutex;
  let r =
    if not (full t) then Ok ()
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
      set_load_gauges t;
      while full t do
        Condition.wait t.freed t.mutex
      done;
      t.queued <- t.queued - 1;
      Ok ()
    end
  in
  if Result.is_ok r then t.in_flight <- t.in_flight + 1;
  set_load_gauges t;
  Mutex.unlock t.mutex;
  (match r with
  | Ok () -> ()
  | Error e ->
      Sw_obs.Metrics.incr_a "supervise.shed_total";
      Sw_obs.Log.warn ~scope:"supervise" "admission.shed"
        [ ("error", Sw_obs.Log.S (Sw_arch.Error.to_string e)) ]);
  r

let release t =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  set_load_gauges t;
  Condition.signal t.freed;
  Mutex.unlock t.mutex

let in_flight t =
  Mutex.lock t.mutex;
  let n = t.in_flight in
  Mutex.unlock t.mutex;
  n

let run t work =
  match admit t with
  | Error _ as e -> e
  | Ok () -> Fun.protect ~finally:(fun () -> release t) work
