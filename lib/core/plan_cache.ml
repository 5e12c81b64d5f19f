(* Sharded, mutex-protected plan cache.

   Keys hash to a shard; each shard owns its table, FIFO order and stats
   under its own mutex, so concurrent domains only contend when their keys
   collide. A produce in flight is tracked per key: a second requester of
   the same key blocks on the shard's condition variable instead of
   compiling the plan again, so (hit, miss) totals are the same whether
   the requests raced or ran back-to-back. The producer runs OUTSIDE the
   lock — compilations are the expensive part and must overlap.

   With the default [shards = 1] the observable single-threaded behavior
   (global FIFO eviction at [capacity]) is exactly the historical one. *)

type 'a shard = {
  mutex : Mutex.t;
  settled : Condition.t;  (* an in-flight produce finished (or failed) *)
  table : (string, 'a) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  mutable order : string list;  (* insertion order, oldest first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'a t = { shard_capacity : int; shards : 'a shard array }

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?(capacity = 64) ?(shards = 1) () =
  if capacity <= 0 then
    invalid_arg "Plan_cache.create: capacity must be positive";
  if shards <= 0 then invalid_arg "Plan_cache.create: shards must be positive";
  let per = max 1 ((capacity + shards - 1) / shards) in
  {
    shard_capacity = per;
    shards =
      Array.init shards (fun _ ->
          {
            mutex = Mutex.create ();
            settled = Condition.create ();
            table = Hashtbl.create 16;
            inflight = Hashtbl.create 4;
            order = [];
            hits = 0;
            misses = 0;
            evictions = 0;
          });
  }

let shard_of t k = t.shards.(Hashtbl.hash k mod Array.length t.shards)

(* The key must change whenever anything the pipeline reads changes: the
   requested problem, the enabled optimizations and the machine model are
   all plain data, so a digest of their marshalled image is exact. *)
let key ~spec ~options ~(config : Sw_arch.Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string (spec, options, config) []))

let find_or_add t ~key:k produce =
  let s = shard_of t k in
  Mutex.lock s.mutex;
  let rec get () =
    match Hashtbl.find_opt s.table k with
    | Some plan ->
        s.hits <- s.hits + 1;
        Mutex.unlock s.mutex;
        Sw_obs.Metrics.incr_a "plan_cache.hits_total";
        plan
    | None ->
        if Hashtbl.mem s.inflight k then begin
          (* someone else is compiling this plan right now: wait for it
             rather than duplicating the work; on producer failure the
             wait resumes and this caller becomes the producer *)
          Condition.wait s.settled s.mutex;
          get ()
        end
        else begin
          Hashtbl.add s.inflight k ();
          s.misses <- s.misses + 1;
          Mutex.unlock s.mutex;
          Sw_obs.Metrics.incr_a "plan_cache.misses_total";
          match produce () with
          | exception e ->
              Mutex.lock s.mutex;
              Hashtbl.remove s.inflight k;
              Condition.broadcast s.settled;
              Mutex.unlock s.mutex;
              raise e
          | plan ->
              Mutex.lock s.mutex;
              Hashtbl.remove s.inflight k;
              let evicted = ref false in
              if not (Hashtbl.mem s.table k) then begin
                if List.length s.order >= t.shard_capacity then (
                  match s.order with
                  | oldest :: rest ->
                      Hashtbl.remove s.table oldest;
                      s.order <- rest;
                      s.evictions <- s.evictions + 1;
                      evicted := true
                  | [] -> ());
                Hashtbl.add s.table k plan;
                s.order <- s.order @ [ k ]
              end;
              Condition.broadcast s.settled;
              Mutex.unlock s.mutex;
              if !evicted then
                Sw_obs.Metrics.incr_a "plan_cache.evictions_total";
              plan
        end
  in
  get ()

(* Insert-if-absent, counting as neither hit nor miss: the warm-start
   path preloads plans decoded from the durable store without skewing the
   traffic counters the cache tests pin. *)
let add t ~key:k plan =
  let s = shard_of t k in
  Mutex.lock s.mutex;
  let added =
    if Hashtbl.mem s.table k || Hashtbl.mem s.inflight k then false
    else begin
      if List.length s.order >= t.shard_capacity then (
        match s.order with
        | oldest :: rest ->
            Hashtbl.remove s.table oldest;
            s.order <- rest;
            s.evictions <- s.evictions + 1
        | [] -> ());
      Hashtbl.add s.table k plan;
      s.order <- s.order @ [ k ];
      true
    end
  in
  Mutex.unlock s.mutex;
  added

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let mem t k =
  let s = shard_of t k in
  locked s (fun () -> Hashtbl.mem s.table k)

let stats (t : 'a t) =
  Array.fold_left
    (fun acc s ->
      locked s (fun () ->
          {
            hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            entries = acc.entries + Hashtbl.length s.table;
          }))
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    t.shards
