(* tune_cold: a cold Sw_tune.Search.run on sw26010pro with an empty tuning
   DB, the bench budget and one job, over a fixed subset of the bench tune
   shapes. Nearly all host time is the simulator's timing path. *)

open Sw_core
module Search = Sw_tune.Search
module Space = Sw_tune.Space

let config = Sw_arch.Config.sw26010pro
let budget = 12

(* Each shape with its committed winner Gflops (results/BENCH_tune.json). *)
let shapes = [ ((2048, 2048, 2048), "1600.73"); ((4096, 4096, 4096), "1854.64") ]

let spec_of (m, n, k) = Spec.make ~m ~n ~k ()
let shape_id (m, n, k) = Printf.sprintf "%dx%dx%d" m n k

type state = { work : string }

let setup ~work =
  let dir = Util.fresh_dir ~work "tunedb" in
  ignore (Sw_tune.Tune_db.open_ ~dir ());
  Util.rm_rf dir;
  { work }

let teardown _ = ()

(* One cold tune of one shape against a fresh, empty tuning DB: the
   outcome, raw seconds and reference seconds. *)
let tune st ~clock shape =
  let dir = Util.fresh_dir ~work:st.work "tunedb" in
  let db = Sw_tune.Tune_db.open_ ~dir () in
  let r, raw, dt =
    Util.timed clock (fun () -> Search.run ~budget ~jobs:1 ~db ~config (spec_of shape))
  in
  Util.rm_rf dir;
  (r, raw, dt)

(* The correctness gate: a real search ran, the winner never loses to the
   paper default, and its Gflops match the committed value exactly. *)
let check (o : Util.outcome) (shape, expected) r =
  o.Util.attempted <- o.Util.attempted + 1;
  let bad fmt =
    Printf.ksprintf
      (fun s ->
        o.Util.failed <- o.Util.failed + 1;
        Util.problem o "tune %s: %s" (shape_id shape) s)
      fmt
  in
  match r with
  | Error e -> bad "%s" e
  | Ok (t : Search.outcome) ->
      if t.Search.from_db then bad "served from the tuning DB"
      else if t.Search.gflops +. 1e-9 < t.Search.default_gflops then
        bad "winner %.2f lost to the paper default %.2f" t.Search.gflops
          t.Search.default_gflops
      else if Printf.sprintf "%.2f" t.Search.gflops <> expected then
        bad "winner %.2f Gflops, committed %s" t.Search.gflops expected

(* One pass over the shape set: per-shape outcomes, raw seconds and
   reference seconds. *)
let pass st o ~clock =
  List.map
    (fun ((shape, _) as s) ->
      let r, raw, dt = tune st ~clock shape in
      check o s r;
      (shape, r, raw, dt))
    shapes

let run_plain st o ~seconds =
  let clock = Util.clock () in
  let t0 = Util.now () in
  (* at least two passes, so each run's figures average over two searches
     of each shape *)
  let rec loop acc =
    let acc = acc @ pass st o ~clock in
    if List.length acc < 2 * List.length shapes || Util.now () -. t0 < seconds then
      loop acc
    else acc
  in
  let ops = loop [] in
  let lat = List.map (fun (_, _, _, dt) -> dt) ops in
  let tail, q = Util.tail lat in
  Util.set o "p50_ms" (1000.0 *. Util.median lat);
  Util.set o "tail_ms" (1000.0 *. tail);
  Util.set o "throughput_per_s"
    (float_of_int (List.length lat) /. Util.sum lat);
  Printf.printf "tune_cold: %d cold tune(s) of %s, budget %d, jobs 1\n"
    (List.length lat)
    (String.concat " + " (List.map (fun (s, _) -> shape_id s) shapes))
    budget;
  List.iter
    (fun (shape, r, raw, dt) ->
      match r with
      | Ok (t : Search.outcome) ->
          Printf.printf
            "  %-16s %8.3f s (raw host %.3f s)  winner %s %.2f Gflops (default %.2f)\n"
            (shape_id shape) dt raw (Space.key t.Search.winner) t.Search.gflops
            t.Search.default_gflops
      | Error e -> Printf.printf "  %-16s FAILED %s\n" (shape_id shape) e)
    ops;
  Printf.printf "  latency per shape: p50 %.1f ms, tail p%.0f %.1f ms (n=%d)\n"
    (Util.get o "p50_ms") (100.0 *. q) (Util.get o "tail_ms")
    (List.length lat)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

(* What Runner.measure compiles internally when it extrapolates: one
   mesh-block spec per sampled panel count, under a cacheless session. *)
let block_specs (c : Compile.t) =
  let spec = c.Compile.spec and t = c.Compile.tiles in
  let panel = t.Tile_model.panel_k in
  let block k =
    Spec.make ~alpha:spec.Spec.alpha ~beta:spec.Spec.beta ~ta:spec.Spec.ta
      ~tb:spec.Spec.tb ~fusion:spec.Spec.fusion ~m:t.Tile_model.mesh_m
      ~n:t.Tile_model.mesh_n ~k ()
  in
  if spec.Spec.k <= 6 * panel then [ block spec.Spec.k ]
  else [ block (3 * panel); block (6 * panel) ]

type replay = {
  mutable exact : float list;
  mutable extrap : float list;
  mutable compiles : float list;
  mutable block_compiles : float list;
  mutable realize : float list;
  mutable pass_ms : (string * float) list;
}

(* Re-run one measured candidate, each layer call in its own span under
   the candidate's key: compile, measure and (for extrapolated
   measurements) the block compilations measure performs. Returns each
   call's kind and raw seconds. *)
let measure_candidate rec_ o acc ~id ~spec (e : Search.entry) (rz : Space.realized) =
  Util.span rec_ ~cat:"tuner" ~id "candidate" @@ fun () ->
  let session =
    Session.create ~no_cache:true ~options:rz.Space.options ~arch:rz.Space.cfg ()
  in
  let compiled, dt =
    Util.time (fun () ->
        Util.span rec_ ~cat:"compiler" ~id "compile.run" (fun () ->
            Compile.run session spec))
  in
  (`Compile, dt)
  ::
  (match compiled with
  | Error _ -> []
  | Ok compiled -> (
      List.iter
        (fun (s : Pass.stat) ->
          if s.Pass.ran then
            acc.pass_ms <- (s.Pass.pass, 1000.0 *. s.Pass.seconds) :: acc.pass_ms)
        compiled.Compile.pass_stats;
      match
        Util.time (fun () ->
            Util.span rec_ ~cat:"simulator" ~id "runner.measure" (fun () ->
                Runner.measure compiled))
      with
      | exception (Runner.Runner_error _ | Sw_arch.Error.Sim_error _) -> []
      | perf, dt ->
          (match e.Search.verdict with
          | Search.Measured g
            when float_of_int (Spec.flops spec) /. perf.Runner.seconds /. 1e9 <> g ->
              Util.problem o "tune replay of %s measured differently" id
          | _ -> ());
          if perf.Runner.exact then [ (`Exact, dt) ]
          else
            (`Extrap, dt)
            :: List.map
                 (fun bs ->
                   let _, dt =
                     Util.time (fun () ->
                         Util.span rec_ ~cat:"compiler" ~id "runner.block_compile"
                           (fun () ->
                             Compile.run
                               (Session.create ~no_cache:true
                                  ~options:compiled.Compile.options
                                  ~arch:compiled.Compile.config ())
                               bs))
                   in
                   (`Block, dt))
                 (block_specs compiled)))

(* Replay a search's audit trail: realize every candidate, as the search
   does first, then re-run every measured one. Each group of calls is
   timed between calibrations, and its calls' seconds are scaled to
   reference seconds with the group's factor. *)
let replay_shape rec_ o acc ~clock shape (t : Search.outcome) =
  let spec = spec_of shape in
  let key (e : Search.entry) = shape_id shape ^ "/" ^ Space.key e.Search.candidate in
  let realized, raw, norm =
    Util.timed clock (fun () ->
        List.map
          (fun (e : Search.entry) ->
            let rz, dt =
              Util.time (fun () ->
                  Util.span rec_ ~cat:"tuner" ~id:(key e) "space.realize" (fun () ->
                      Space.realize ~config ~spec e.Search.candidate))
            in
            (e, rz, dt))
          t.Search.entries)
  in
  List.iter (fun (_, _, dt) -> acc.realize <- (dt *. norm /. raw) :: acc.realize) realized;
  List.iter
    (fun ((e : Search.entry), rz, _) ->
      match (e.Search.verdict, rz) with
      | (Search.Measured _ | Search.Failed _), Ok rz ->
          let calls, raw, norm =
            Util.timed clock (fun () -> measure_candidate rec_ o acc ~id:(key e) ~spec e rz)
          in
          List.iter
            (fun (kind, dt) ->
              let dt = dt *. norm /. raw in
              match kind with
              | `Compile -> acc.compiles <- dt :: acc.compiles
              | `Exact -> acc.exact <- dt :: acc.exact
              | `Extrap -> acc.extrap <- dt :: acc.extrap
              | `Block -> acc.block_compiles <- dt :: acc.block_compiles)
            calls
      | _ -> ())
    realized

let count_verdicts outcomes =
  List.fold_left
    (fun (bound, legal) (_, r, _, _) ->
      match r with
      | Error _ -> (bound, legal)
      | Ok (t : Search.outcome) ->
          List.fold_left
            (fun (b, l) (e : Search.entry) ->
              match e.Search.verdict with
              | Search.Bound_pruned _ -> (b + 1, l)
              | Search.Legality _ -> (b, l + 1)
              | _ -> (b, l))
            (bound, legal) t.Search.entries)
    (0, 0) outcomes

let run_traced st o ~out =
  (* an untraced warm-up pass, so that the traced pass and the reference
     pass after it both start from a grown heap *)
  let clock = Util.clock () in
  ignore (pass st (Util.outcome ()) ~clock);
  (* traced pass: spans around each search, and a metrics registry for
     the simulator's event counter *)
  let outer = Util.recorder () in
  let reg = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install reg;
  let traced =
    Fun.protect ~finally:Sw_obs.Metrics.uninstall (fun () ->
        List.map
          (fun (shape, _) ->
            let r, _, dt =
              Util.timed clock (fun () ->
                  Util.span outer ~tid:1 ~cat:"tuner" ~id:(shape_id shape)
                    "search.run" (fun () ->
                      let dir = Util.fresh_dir ~work:st.work "tunedb" in
                      let db = Sw_tune.Tune_db.open_ ~dir () in
                      Fun.protect
                        ~finally:(fun () -> Util.rm_rf dir)
                        (fun () ->
                          Search.run ~budget ~jobs:1 ~db ~config
                            (spec_of shape))))
            in
            (shape, r, dt))
          shapes)
  in
  let traced_ref = Util.sum (List.map (fun (_, _, dt) -> dt) traced) in
  (* untraced reference pass: the numbers the tracing overhead is taken
     against, and the search time the replay is subtracted from *)
  let plain = Util.with_gc o (fun () -> pass st o ~clock) in
  let plain_wall = Util.sum (List.map (fun (_, _, raw, _) -> raw) plain) in
  let plain_ref = Util.sum (List.map (fun (_, _, _, dt) -> dt) plain) in
  let events =
    match
      Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot reg) "sim.events_total"
    with
    | Some (Sw_obs.Metrics.Counter n) -> float_of_int n
    | _ -> 0.0
  in
  let rec_ = Util.recorder () in
  let acc =
    {
      exact = [];
      extrap = [];
      compiles = [];
      block_compiles = [];
      realize = [];
      pass_ms = [];
    }
  in
  List.iter
    (fun (shape, r, _, _) ->
      match r with Ok t -> replay_shape rec_ o acc ~clock shape t | Error _ -> ())
    plain;
  let set = Util.set o in
  let winners =
    List.filter_map
      (fun (_, r, _, _) -> Result.to_option r |> Option.map (fun t -> t.Search.gflops))
      plain
  in
  let measurements =
    List.fold_left
      (fun n (_, r, _, _) ->
        match r with Ok t -> n + t.Search.measurements | Error _ -> n)
      0 plain
  in
  let bound, legal = count_verdicts plain in
  let exact_s = Util.sum acc.exact and extrap_s = Util.sum acc.extrap in
  set "sim.events" events;
  set "sim.events_per_s" (events /. (exact_s +. extrap_s));
  set "runner.exact_s" exact_s;
  set "runner.extrap_s" extrap_s;
  set "runner.exact_n" (float_of_int (List.length acc.exact));
  set "runner.extrap_n" (float_of_int (List.length acc.extrap));
  set "runner.block_compile_s" (Util.sum acc.block_compiles);
  set "tune.measurements" (float_of_int measurements);
  set "tune.bound_pruned" (float_of_int bound);
  set "tune.legality_pruned" (float_of_int legal);
  set "tune.gflops" (Util.sum winners /. float_of_int (List.length winners));
  set "tune.wall_s" plain_ref;
  set "space.realize_ms" (1000.0 *. Util.sum acc.realize);
  let compile_s = Util.sum acc.compiles in
  set "tune.search_overhead_s" (plain_ref -. compile_s -. exact_s -. extrap_s);
  set "compile.cold_ms" (1000.0 *. Util.median acc.compiles);
  List.iter
    (fun p ->
      set ("pass." ^ p ^ "_ms")
        (Util.median
           (List.filter_map
              (fun (q, ms) -> if q = p then Some ms else None)
              acc.pass_ms)))
    Util.passes;
  set "trace.overhead_pct" (100.0 *. (traced_ref -. plain_ref) /. plain_ref);
  Util.record_self_times o rec_;
  List.iter (Util.add rec_) outer.Util.spans;
  Util.write_chrome rec_ ~path:(Filename.concat out "trace_tune_cold.json");
  (* the host-time table by layer *)
  let row name s =
    Printf.printf "  %-44s %9.3f s %6.1f%%\n" name s (100.0 *. s /. plain_ref)
  in
  Printf.printf
    "tune_cold host time by layer, reference seconds (untraced search %.3f; raw host %.3f s)\n"
    plain_ref plain_wall;
  row
    (Printf.sprintf "Runner.measure exact (%d)" (List.length acc.exact))
    exact_s;
  row
    (Printf.sprintf "Runner.measure extrapolated (%d)" (List.length acc.extrap))
    extrap_s;
  row "  of which one_block_perf recompiles" (Util.sum acc.block_compiles);
  row
    (Printf.sprintf "Compile.run per candidate (%d)" (List.length acc.compiles))
    compile_s;
  row
    (Printf.sprintf "Space.realize (%d)" (List.length acc.realize))
    (Util.sum acc.realize);
  row "search overhead (search - compile - measure)"
    (Util.get o "tune.search_overhead_s");
  Printf.printf
    "  traced search %.3f reference s against %.3f untraced: tracing overhead \
     %.2f%%; %.0f simulator events\n"
    traced_ref plain_ref
    (Util.get o "trace.overhead_pct")
    events
