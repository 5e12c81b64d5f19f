type bucket = { mutable tokens : float; mutable last : float }

type t = {
  rate : float;
  burst : float;
  now : unit -> float;
  table : (string, bucket) Hashtbl.t;
  mu : Mutex.t;
}

let create ?(now = Unix.gettimeofday) ~rate_per_s ~burst () =
  if not (rate_per_s > 0.0) then
    invalid_arg
      (Printf.sprintf "Ratelimit.create: rate_per_s = %g (need > 0)" rate_per_s);
  if burst < 1 then
    invalid_arg (Printf.sprintf "Ratelimit.create: burst = %d (need >= 1)" burst);
  {
    rate = rate_per_s;
    burst = float_of_int burst;
    now;
    table = Hashtbl.create 16;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Lazy continuous refill: credit the elapsed time since the bucket was
   last touched, capped at the burst size. Clock regressions (ntp steps
   the fake-clock tests do not exercise) are clamped to zero credit. *)
let refilled t key =
  let now = t.now () in
  match Hashtbl.find_opt t.table key with
  | Some b ->
      let dt = Float.max 0.0 (now -. b.last) in
      b.tokens <- Float.min t.burst (b.tokens +. (dt *. t.rate));
      b.last <- now;
      b
  | None ->
      let b = { tokens = t.burst; last = now } in
      Hashtbl.replace t.table key b;
      b

let try_admit t ~key =
  locked t @@ fun () ->
  let b = refilled t key in
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else false

let admit t ~key =
  if try_admit t ~key then Ok ()
  else
    Error
      (Sw_arch.Error.Overloaded
         {
           in_flight = 0;
           queued = 0;
           limit = int_of_float (Float.ceil t.rate);
         })

let tokens t ~key = locked t @@ fun () -> (refilled t key).tokens
