(* Fixed-size domain pool with a shared work queue.

   Determinism contract (see pool.mli): results in input order, first
   failing index's exception re-raised, per-task observability contexts
   (Sw_obs.Ctx) absorbed into the parent in task order. A [jobs = 1] pool
   runs inline through List.map — byte-identical to the pre-pool
   sequential code. *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  wake : Condition.t;  (* workers: the queue grew or stop was set *)
  queue : task Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Which worker lane a task ran on: 0 in the calling domain (inline pools),
   1..jobs in worker domains. Used to label trace lanes. *)
let lane_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let lane () = Domain.DLS.get lane_key

let worker t ix () =
  Domain.DLS.set lane_key ix;
  let rec loop () =
    Mutex.lock t.mutex;
    let rec next () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stop then None
      else begin
        Condition.wait t.wake t.mutex;
        next ()
      end
    in
    match next () with
    | None -> Mutex.unlock t.mutex
    | Some task ->
        Mutex.unlock t.mutex;
        (* tasks contain their own exception handling; a raise here would
           kill the worker, so belt-and-braces swallow *)
        (try task () with _ -> ());
        loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun i -> Domain.spawn (worker t (i + 1)));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One parallel region. Each task runs under a fork of the caller's
   observability context; the parent absorbs the forks in task order after
   the barrier, so metric totals, trace content and log lines do not
   depend on the interleaving. *)
let map t f xs =
  if t.jobs <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let n = Array.length input in
    if n = 0 then []
    else begin
      let ctx = Sw_obs.Ctx.current () in
      let results = Array.make n None in
      let remaining = ref n in
      let finished = Condition.create () in
      let task i () =
        (* the decrement must happen no matter what the body does, or the
           barrier below never opens *)
        Fun.protect ~finally:(fun () ->
            Mutex.lock t.mutex;
            decr remaining;
            if !remaining = 0 then Condition.broadcast finished;
            Mutex.unlock t.mutex)
        @@ fun () ->
        let r, child =
          Sw_obs.Ctx.run_forked ctx (fun () ->
              try Ok (f input.(i))
              with e -> Error (e, Printexc.get_raw_backtrace ()))
        in
        results.(i) <- Some (lane (), child, r)
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.add (task i) t.queue
      done;
      Condition.broadcast t.wake;
      while !remaining > 0 do
        Condition.wait finished t.mutex
      done;
      Mutex.unlock t.mutex;
      (* stitch observability in task order; then the first failure by
         input index wins, deterministically *)
      Array.iter
        (function
          | Some (lane, child, _) -> Sw_obs.Ctx.absorb ~into:ctx ~lane child
          | None -> ())
        results;
      Array.iter
        (function
          | Some (_, _, Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | _ -> ())
        results;
      Array.to_list
        (Array.map
           (function
             | Some (_, _, Ok v) -> v
             | _ -> failwith "Pool.map: task did not complete")
           results)
    end
  end
