(* Seeded, deterministic fault plans for the simulated cluster.

   A plan owns a private PRNG seeded from [seed]; injection sites draw from
   it in simulated-event order, which the engine makes deterministic, so a
   (program, plan) pair always produces the same perturbed execution. Each
   draw only happens when its fault kind is enabled, so restricting [kinds]
   never reshuffles the remaining kinds' decisions across runs with the
   same seed and spec. *)

type kind = Jitter | Stall | Delay_reply | Drop_reply | Straggler | Flip

let all_kinds = [ Jitter; Stall; Delay_reply; Drop_reply; Straggler; Flip ]

let kind_to_string = function
  | Jitter -> "jitter"
  | Stall -> "stall"
  | Delay_reply -> "delay"
  | Drop_reply -> "drop"
  | Straggler -> "straggler"
  | Flip -> "flip"

let kind_of_string s = List.find_opt (fun k -> kind_to_string k = s) all_kinds

type spec = {
  kinds : kind list;
  jitter_frac : float;
  stall_prob : float;
  stall_s : float;
  delay_prob : float;
  delay_s : float;
  drop_prob : float;
  drop_permanent_frac : float;
  redeliver_s : float;
  straggler_frac : float;
  straggler_slowdown : float;
  flip_prob : float;
  flip_magnitude : float;
}

let default_spec =
  {
    kinds = all_kinds;
    jitter_frac = 0.25;
    stall_prob = 0.02;
    stall_s = 20.0e-6;
    delay_prob = 0.05;
    delay_s = 10.0e-6;
    drop_prob = 0.01;
    drop_permanent_frac = 0.05;
    redeliver_s = 200.0e-6;
    straggler_frac = 0.10;
    straggler_slowdown = 3.0;
    flip_prob = 0.002;
    flip_magnitude = 1.0;
  }

let spec_with ~kinds spec = { spec with kinds }

type t = {
  spec : spec;
  seed : int;
  rng : Random.State.t;
  counts : int array;  (* injections performed, indexed by kind *)
  (* mirror counters in the ambient metrics registry (if one was installed
     when the plan was built), labelled by kind *)
  m_inject : Sw_obs.Metrics.counter array option;
}

let kind_index = function
  | Jitter -> 0
  | Stall -> 1
  | Delay_reply -> 2
  | Drop_reply -> 3
  | Straggler -> 4
  | Flip -> 5

let plan ?(spec = default_spec) ~seed () =
  {
    spec;
    seed;
    rng = Random.State.make [| 0x5057; seed |];
    counts = Array.make 6 0;
    m_inject =
      Option.map
        (fun r ->
          Array.of_list
            (List.map
               (fun k ->
                 Sw_obs.Metrics.counter r
                   ~labels:[ ("kind", kind_to_string k) ]
                   "fault.injections_total")
               all_kinds))
        (Sw_obs.Metrics.current ());
  }

let seed t = t.seed
let enabled t k = List.mem k t.spec.kinds

let bump t k =
  t.counts.(kind_index k) <- t.counts.(kind_index k) + 1;
  match t.m_inject with
  | None -> ()
  | Some arr -> Sw_obs.Metrics.incr arr.(kind_index k)

let stats t =
  List.filter_map
    (fun k ->
      let n = t.counts.(kind_index k) in
      if n > 0 then Some (k, n) else None)
    all_kinds

let stats_to_string t =
  match stats t with
  | [] -> "none injected"
  | l ->
      String.concat " "
        (List.map (fun (k, n) -> Printf.sprintf "%s=%d" (kind_to_string k) n) l)

(* ------------------------------------------------------------------ *)
(* Injection decisions                                                  *)
(* ------------------------------------------------------------------ *)

type channel_perturb = { stall_s : float; slowdown : float }

let channel_perturb t =
  let slowdown =
    if enabled t Jitter && t.spec.jitter_frac > 0.0 then begin
      let j = Random.State.float t.rng t.spec.jitter_frac in
      if j > 0.0 then bump t Jitter;
      1.0 +. j
    end
    else 1.0
  in
  let stall_s =
    if enabled t Stall && Random.State.float t.rng 1.0 < t.spec.stall_prob then begin
      bump t Stall;
      t.spec.stall_s
    end
    else 0.0
  in
  { stall_s; slowdown }

type disposition =
  | Deliver
  | Delay of float
  | Drop of { redeliver_after : float }
  | Drop_forever

let reply_disposition t =
  if enabled t Drop_reply && Random.State.float t.rng 1.0 < t.spec.drop_prob
  then begin
    bump t Drop_reply;
    if Random.State.float t.rng 1.0 < t.spec.drop_permanent_frac then Drop_forever
    else Drop { redeliver_after = t.spec.redeliver_s }
  end
  else if
    enabled t Delay_reply && Random.State.float t.rng 1.0 < t.spec.delay_prob
  then begin
    bump t Delay_reply;
    Delay (Random.State.float t.rng t.spec.delay_s)
  end
  else Deliver

(* Straggler CPEs are chosen by the plan seed, not by draw order, so the
   set is stable for a given seed regardless of the program. *)
let is_straggler t ~rid ~cid =
  enabled t Straggler
  && t.spec.straggler_frac > 0.0
  && Hashtbl.hash (0x57A6, t.seed, rid, cid) mod 1024
     < int_of_float (t.spec.straggler_frac *. 1024.0)

let kernel_slowdown t ~rid ~cid =
  if is_straggler t ~rid ~cid then begin
    bump t Straggler;
    t.spec.straggler_slowdown
  end
  else 1.0

let flip t ~elems =
  if elems > 0 && enabled t Flip && Random.State.float t.rng 1.0 < t.spec.flip_prob
  then begin
    bump t Flip;
    Some
      ( Random.State.int t.rng elems,
        (Random.State.float t.rng 2.0 -. 1.0) *. t.spec.flip_magnitude )
  end
  else None
