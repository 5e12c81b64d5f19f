(* The calling domain's observability context: one value over the three
   domain-local slots (Metrics, Span, Log keep one DLS key each), so the
   host pool forks and absorbs all of them on one path. *)

type t = {
  metrics : Metrics.registry option;
  spans : Span.sink option;
  log : Log.t option;
}

let current () =
  { metrics = Metrics.current (); spans = Span.current (); log = Log.current () }

let run_forked parent f =
  let child =
    {
      metrics = Option.map (fun _ -> Metrics.create ()) parent.metrics;
      spans = Option.map (fun p -> Span.create ~epoch:(Span.epoch p) ()) parent.spans;
      log = Option.map Log.fork parent.log;
    }
  in
  Option.iter Metrics.install child.metrics;
  Option.iter Span.install child.spans;
  Option.iter Log.install child.log;
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun _ -> Metrics.uninstall ()) child.metrics;
      Option.iter (fun _ -> Span.uninstall ()) child.spans;
      Option.iter (fun _ -> Log.uninstall ()) child.log)
    (fun () -> (f (), child))

let absorb ~into ~lane child =
  (match (into.metrics, child.metrics) with
  | Some p, Some c -> Metrics.absorb p (Metrics.snapshot c)
  | _ -> ());
  (match (into.spans, child.spans) with
  | Some p, Some c ->
      Span.set_thread_name p ~pid:Span.host_pid ~tid:lane
        (Printf.sprintf "domain %d" lane);
      Span.absorb ~into:p ~tid:lane c
  | _ -> ());
  match (into.log, child.log) with
  | Some p, Some c -> Log.absorb ~into:p c
  | _ -> ()
