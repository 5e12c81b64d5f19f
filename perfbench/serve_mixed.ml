(* serve_mixed: an in-process swgemmd (Sw_host.Server over Sw_core.Service,
   one Session with the default plan cache and a durable store) on
   loopback TCP, driven by one load generator with at most nproc
   connections. After a warm-up, phase 1 is an open loop at a fixed rate
   on one connection, latency timed from each request's due time; phase 2
   is a closed loop on every connection that measures capacity. *)

open Sw_core
module Json = Sw_obs.Json

let config = Sw_arch.Config.sw26010pro

(* Open-loop rate, well below the closed-loop capacity on a 2-core host. *)
let rate_per_s = 125.0

(* The generator's connections: at most nproc, and never more than two,
   so the load keeps its shape on bigger hosts. *)
let connections = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Share of the run given to the open loop; the rest is the closed loop.
   At 20 s per run the open loop sends 1750 requests, enough for a p99. *)
let open_share = 0.7

(* ------------------------------------------------------------------ *)
(* The request stream                                                   *)
(* ------------------------------------------------------------------ *)

(* Compile requests draw from shape x options x fusion: 1728 specs under
   a fixed popularity ranking. The hot region (the first 384, six times
   the 64-plan cache) takes Zipf-skewed draws, so repeats are common and
   both the plan cache and the store serve them; every twentieth request
   names a spec from the cold region never asked for before, a cold
   compile and a store write. Fixed positions for cold and profile
   requests keep the tier mix equal in every window of the run. *)
let universe =
  let dims = [ 128; 256; 384; 512; 768; 1024 ] and ks = [ 128; 256; 512; 1024 ] in
  let fusions = [ Spec.No_fusion; Spec.Epilogue "relu"; Spec.Prologue "quant" ] in
  List.concat_map
    (fun m ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun k ->
              List.concat_map
                (fun fusion ->
                  List.map
                    (fun (_, opts) -> (Spec.make ~fusion ~m ~n ~k (), Some opts))
                    Options.breakdown)
                fusions)
            ks)
        dims)
    dims
  |> Array.of_list

let hot = 384
let zipf_s = 1.1
let cold_every = 20

(* Every fiftieth request is a profile, of a shape that simulates in
   about 30 ms. *)
let profile_specs =
  [| Spec.make ~m:256 ~n:256 ~k:256 (); Spec.make ~m:512 ~n:256 ~k:256 ();
     Spec.make ~m:256 ~n:512 ~k:256 (); Spec.make ~m:512 ~n:512 ~k:256 () |]

let profile_every = 50

(* The first requests warm the plan cache and the store before anything
   is timed: the first [hot] of them name every hot spec once. *)
let warmup = 1000

type request = { meth : string; spec : Spec.t; opts : Options.t option; params : Json.t }

let request_of meth (spec, opts) =
  let params =
    Json.Obj
      (("spec", Spec.to_json spec)
      :: (match opts with Some o -> [ ("options", Options.to_json o) ] | None -> []))
  in
  { meth; spec; opts; params }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The seeded stream: request [i] is a pure function of the seed and [i]. *)
let stream ~seed =
  let st = Random.State.make [| seed; 0x73657276 |] in
  let ranked =
    shuffle (Random.State.make [| 0x706f70 |]) (Array.init (Array.length universe) Fun.id)
  in
  let hot_specs = Array.sub ranked 0 hot in
  let first_touch = shuffle st (Array.copy hot_specs) in
  let cold_specs = shuffle st (Array.sub ranked hot (Array.length ranked - hot)) in
  let cdf = Array.make hot 0.0 and total = ref 0.0 in
  Array.iteri
    (fun r _ ->
      total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) zipf_s);
      cdf.(r) <- !total)
    cdf;
  let draw () =
    let u = Random.State.float st !total in
    let lo = ref 0 and hi = ref (hot - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    hot_specs.(!lo)
  in
  let colds = ref 0 in
  let next j =
    if j mod profile_every = profile_every - 1 then
      request_of "profile"
        (profile_specs.(Random.State.int st (Array.length profile_specs)), None)
    else if j < hot then request_of "compile" universe.(first_touch.(j))
    else if j mod cold_every = cold_every / 2 then begin
      let c = cold_specs.(!colds mod Array.length cold_specs) in
      incr colds;
      request_of "compile" universe.(c)
    end
    else request_of "compile" universe.(draw ())
  in
  (* requests are drawn in index order, whoever asks first *)
  let memo = Hashtbl.create 8192 and lock = Mutex.create () in
  fun i ->
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
    for j = Hashtbl.length memo to i do
      Hashtbl.add memo j (next j)
    done;
    Hashtbl.find memo i

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

type daemon = {
  dir : string;
  session : Session.t;
  server : Sw_host.Server.t;
  serving : Thread.t;
  conns : Sw_host.Client.t array;
  warm_s : float;
  warm_loaded : int;
}

(* Bind, open the store, warm-start, and connect the generator: the
   set-up swgemmd pays before its first request. *)
let start ?(wrap = Fun.id) ~work () =
  let dir = Util.fresh_dir ~work "store" in
  let session = Session.create ~store_dir:dir ~arch:config () in
  let warm_loaded, warm_s = Util.time (fun () -> Session.warm_start session) in
  let server =
    Sw_host.Server.create
      ~supervisor:(Sw_host.Supervise.create ())
      ~handler:(wrap (Service.handler (Service.create ~session ())))
      ()
  in
  let port = Sw_host.Server.listen_tcp server ~port:0 () in
  let serving = Thread.create Sw_host.Server.serve server in
  let conns =
    Array.init connections (fun j ->
        let c = Sw_host.Client.connect_tcp ~port () in
        match
          Sw_host.Client.call c ~meth:"ping" ~params:(Json.Obj [ ("conn", Json.Int j) ]) ()
        with
        | Ok _ -> c
        | Error e -> failwith ("serve_mixed: ping failed: " ^ e.Sw_host.Wire.message))
  in
  { dir; session; server; serving; conns; warm_s; warm_loaded }

let stop d =
  Array.iter Sw_host.Client.close d.conns;
  Sw_host.Server.drain d.server;
  Thread.join d.serving;
  Util.rm_rf d.dir

type state = { work : string; seed : int; daemon : daemon }

let setup ~work ~seed = { work; seed; daemon = start ~work () }
let teardown st = stop st.daemon

(* ------------------------------------------------------------------ *)
(* The load generator                                                   *)
(* ------------------------------------------------------------------ *)

type sample = {
  idx : int;
  conn : int;
  due : float;  (** open loop: when it was due; closed loop: when sent *)
  sent : float;
  finished : float;
  body : (Digest.t, string) result;  (** digest of the response body *)
}

let call conn ~conn_id req ~idx ~due =
  let sent = Util.now () in
  let r = Sw_host.Client.call conn ~meth:req.meth ~params:req.params () in
  let finished = Util.now () in
  let body =
    match r with
    | Ok b -> Ok (Digest.string (Json.to_string b))
    | Error e -> Error (e.Sw_host.Wire.err_class ^ ": " ^ e.Sw_host.Wire.message)
  in
  { idx; conn = conn_id; due; sent; finished; body }

(* A closed loop from request [first]: each connection sends its next
   request as soon as the previous one completes, until [stop] says so. *)
let closed_loop d ~req ~first ~stop =
  let next = Atomic.make first in
  let out = Array.make (Array.length d.conns) [] in
  let worker j () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if not (stop i) then begin
        out.(j) <- call d.conns.(j) ~conn_id:j (req i) ~idx:i ~due:(Util.now ()) :: out.(j);
        go ()
      end
    in
    go ()
  in
  List.iter Thread.join
    (List.init (Array.length d.conns) (fun j -> Thread.create (worker j) ()));
  List.concat (Array.to_list out)

(* Each phase runs in a domain of its own with one thread per connection,
   so the generator never competes with the server's threads for a
   runtime lock; the host-speed calibrations run between phases on the
   main domain, with both sides idle. *)
let in_domain f = Domain.join (Domain.spawn f)

(* The open loop: one connection, requests due at a fixed rate from
   [first]; returns the samples. *)
let open_loop d ~req ~first ~n =
  in_domain @@ fun () ->
  let t0 = Util.now () +. 0.001 in
  List.init n (fun i ->
      let due = t0 +. (float_of_int i /. rate_per_s) in
      (* sleep to just before the due time, then spin, so the generator's
         own wake-up delay stays out of the latency *)
      let wait = due -. Util.now () -. 0.001 in
      if wait > 0.0 then Thread.delay wait;
      while Util.now () < due do Domain.cpu_relax () done;
      call d.conns.(0) ~conn_id:0 (req (first + i)) ~idx:(first + i) ~due)

(* Both timed phases run as several windows, each from a fresh domain
   between two calibrations; the run reports the median window, so one
   unlucky placement of the generator's domain does not move it. *)
let windows = 5

(* The warm-up, then open-loop and closed-loop windows. Returns every
   sample, the open-loop samples, each open window's latencies in
   reference seconds and each closed window's capacity in reference
   requests per second. *)
let drive d ~seconds ~req =
  let per_window = int_of_float (rate_per_s *. open_share *. seconds) / windows in
  let closed_s = (1.0 -. open_share) *. seconds /. float_of_int windows in
  let warm = in_domain (fun () -> closed_loop d ~req ~first:0 ~stop:(fun i -> i >= warmup)) in
  let clock = Util.clock () in
  let opened =
    List.init windows (fun w ->
        let ss, raw, dt =
          Util.timed clock (fun () ->
              open_loop d ~req ~first:(warmup + (w * per_window)) ~n:per_window)
        in
        (ss, List.map (fun s -> dt /. raw *. (s.finished -. s.due)) ss))
  in
  let next = ref (warmup + (windows * per_window)) in
  let closed =
    List.init windows (fun _ ->
        let ss, _, dt =
          Util.timed clock (fun () ->
              let c0 = Util.now () in
              in_domain (fun () ->
                  closed_loop d ~req ~first:!next ~stop:(fun _ -> Util.now () -. c0 >= closed_s)))
        in
        next := 1 + List.fold_left (fun m s -> max m s.idx) !next ss;
        (ss, float_of_int (List.length ss) /. dt))
  in
  ( warm @ List.concat_map fst opened @ List.concat_map fst closed,
    List.concat_map fst opened,
    List.map snd opened,
    List.map snd closed )

(* ------------------------------------------------------------------ *)
(* Correctness: responses against local compilations                    *)
(* ------------------------------------------------------------------ *)

(* Every ok response must be byte-identical to what a local Compile.run
   (and, for profile, the local Service) makes of the same request. *)
let expected () =
  let local = Session.create ~arch:config () in
  let svc = Service.create ~session:local () in
  let memo = Hashtbl.create 1024 in
  fun req ->
    let key = req.meth ^ Json.to_string req.params in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
        let body =
          match req.meth with
          | "compile" ->
              let s = match req.opts with Some o -> Session.with_options local o | None -> local in
              Result.map Service.compile_result_json (Compile.run s req.spec)
          | _ -> Service.handle ~client:"local" ~meth:req.meth ~params:req.params svc
        in
        let d = Result.map (fun b -> Digest.string (Json.to_string b)) body in
        Hashtbl.add memo key d;
        d

let check_samples (o : Util.outcome) ~req samples =
  let expect = expected () in
  List.iter
    (fun s ->
      o.Util.attempted <- o.Util.attempted + 1;
      let r = req s.idx in
      let bad why =
        o.Util.failed <- o.Util.failed + 1;
        if o.Util.failed <= 5 then
          Util.problem o "serve request %d (%s %s): %s" s.idx r.meth
            (Spec.to_string r.spec) why
      in
      match (s.body, expect r) with
      | Error e, _ -> bad e
      | Ok _, Error e -> bad ("local run failed: " ^ Sw_arch.Error.to_string e)
      | Ok got, Ok want -> if got <> want then bad "response differs from local compile")
    samples

let check_store (o : Util.outcome) d =
  match Session.store_stats d.session with
  | Some s when s.Sw_host.Store.served_corrupt > 0 ->
      Util.problem o "store served %d corrupt payload(s)" s.Sw_host.Store.served_corrupt
  | _ -> ()

(* One full pass, then the gates. Returns each open window's latencies,
   the generator's lateness, each closed window's capacity and every
   sample. *)
let serve_pass (o : Util.outcome) d ~seconds ~req =
  let all, open_s, lats, capacities = drive d ~seconds ~req in
  check_samples o ~req all;
  check_store o d;
  let late = List.map (fun s -> s.sent -. s.due) open_s in
  (lats, late, capacities, all)

let report o ~lats ~capacities =
  let lat = List.concat lats in
  let tail, q = Util.tail lat in
  Util.set o "p50_ms" (1000.0 *. Util.median (List.map Util.median lats));
  Util.set o "tail_ms" (1000.0 *. tail);
  Util.set o "throughput_per_s" (Util.median capacities);
  Printf.printf
    "serve_mixed: open loop at %.0f req/s on 1 connection, closed loop on %d: \
     p50 %.3f ms (median of %d windows), tail p%.1f %.3f ms (n=%d), \
     %.1f req/s (median of %d windows)\n"
    rate_per_s connections (Util.get o "p50_ms") windows (100.0 *. q)
    (Util.get o "tail_ms") (List.length lat)
    (Util.get o "throughput_per_s") windows;
  Printf.printf "  window p50s (ms):%s; capacities:%s\n"
    (String.concat "" (List.map (fun l -> Printf.sprintf " %.3f" (1000.0 *. Util.median l)) lats))
    (String.concat "" (List.map (fun c -> Printf.sprintf " %.0f" c) capacities));
  Printf.printf "  open-loop latency deciles (ms):%s\n"
    (String.concat ""
       (List.map
          (fun d -> Printf.sprintf " %.2f" (1000.0 *. Util.percentile lat (float_of_int d /. 10.0)))
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]))

let run_plain st o ~seconds =
  let req = stream ~seed:st.seed in
  let lats, _, capacities, _ = serve_pass o st.daemon ~seconds ~req in
  report o ~lats ~capacities

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

(* A handler call as the wrapped handler saw it. *)
type handled = {
  client : string;
  hmeth : string;
  params : Json.t;
  h0 : float;
  h1 : float;
  result : (Json.t, Sw_arch.Error.t) result option;  (** kept for a sample *)
}

let wrap_handler log lock (h : Sw_host.Server.handler) : Sw_host.Server.handler =
  let calls = ref 0 in
  fun ~client ~meth ~params ->
  let h0 = Util.now () in
  let r = h ~client ~meth ~params in
  let h1 = Util.now () in
  Mutex.lock lock;
  let keep = !calls mod 16 = 0 in
  incr calls;
  log := { client; hmeth = meth; params; h0; h1; result = (if keep then Some r else None) } :: !log;
  Mutex.unlock lock;
  r

(* Tier of one Session.run, read from the cache and store counters. *)
let tier session f =
  let hits () = match Session.cache_stats session with Some s -> s.Plan_cache.hits | None -> 0 in
  let store_hits () =
    match Session.store_stats session with Some s -> s.Sw_host.Store.hits | None -> 0
  in
  let h0 = hits () and s0 = store_hits () in
  let r, dt = Util.time f in
  let t = if hits () > h0 then `Hit else if store_hits () > s0 then `Store else `Cold in
  (r, t, dt)

let run_traced st o ~seconds ~out =
  let req = stream ~seed:st.seed in
  (* untraced warm-up on the set-up daemon, so the traced pass and the
     reference pass after it start alike *)
  ignore (serve_pass (Util.outcome ()) st.daemon ~seconds ~req);
  (* traced pass on a fresh daemon whose handler is wrapped *)
  let log = ref [] and lock = Mutex.create () in
  let reg = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install reg;
  let d = start ~wrap:(wrap_handler log lock) ~work:st.work () in
  let tlat, _, _, samples =
    Fun.protect
      ~finally:(fun () -> Sw_obs.Metrics.uninstall ())
      (fun () -> serve_pass (Util.outcome ()) d ~seconds ~req)
  in
  let handled = List.rev !log in
  let server = Sw_host.Server.stats d.server in
  let cache = Session.cache_stats d.session and store = Session.store_stats d.session in
  let events =
    match Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot reg) "sim.events_total" with
    | Some (Sw_obs.Metrics.Counter n) -> float_of_int n
    | _ -> 0.0
  in
  stop d;
  (* untraced reference pass on another fresh daemon *)
  let d = start ~work:st.work () in
  let lats, late, capacities, _ =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () -> Util.with_gc o (fun () -> serve_pass o d ~seconds ~req))
  in
  report o ~lats ~capacities;
  let set = Util.set o in
  let rec_ = Util.recorder () in
  (* match handler calls to requests: each connection is sequential, and
     its ping names the connection behind each server-side client label *)
  let conn_of = Hashtbl.create 4 in
  List.iter
    (fun h ->
      if h.hmeth = "ping" then
        match Json.member "conn" h.params with
        | Some (Json.Int j) -> Hashtbl.replace conn_of h.client j
        | _ -> ())
    handled;
  let per_conn = Hashtbl.create 4 in
  List.iter
    (fun h ->
      match Hashtbl.find_opt conn_of h.client with
      | Some j when h.hmeth <> "ping" ->
          Hashtbl.replace per_conn j (h :: Option.value (Hashtbl.find_opt per_conn j) ~default:[])
      | _ -> ())
    handled;
  let overheads = ref [] in
  for j = 0 to connections - 1 do
      let hs = List.rev (Option.value (Hashtbl.find_opt per_conn j) ~default:[]) in
      let ss =
        List.sort (fun a b -> compare a.sent b.sent) (List.filter (fun s -> s.conn = j) samples)
      in
      let rec zip hs ss =
        match (hs, ss) with
        | h :: hs, s :: ss ->
            let id = Printf.sprintf "r%d" s.idx in
            Util.add rec_ { Util.name = "client.call"; cat = "loadgen"; id; tid = 10 + j; t0 = s.sent; t1 = s.finished };
            Util.add rec_ { Util.name = "service." ^ h.hmeth; cat = "daemon"; id; tid = 10 + j; t0 = h.h0; t1 = h.h1 };
            overheads := (s.finished -. s.sent -. (h.h1 -. h.h0)) :: !overheads;
            zip hs ss
        | _ -> ()
      in
      zip hs ss
  done;
  let by_meth m = List.filter_map (fun h -> if h.hmeth = m then Some (h.h1 -. h.h0) else None) handled in
  set "service.compile_ms" (1000.0 *. Util.median (by_meth "compile"));
  set "service.profile_ms" (1000.0 *. Util.median (by_meth "profile"));
  set "server.overhead_ms" (1000.0 *. Util.median !overheads);
  set "server.shed" (float_of_int server.Sw_host.Server.shed);
  set "server.errored" (float_of_int server.Sw_host.Server.errored);
  set "loadgen.late_p99_ms" (1000.0 *. Util.percentile late 0.99);
  set "serve.capacity_rps" (Util.get o "throughput_per_s");
  set "sim.events" events;
  set "store.warm_start_s" st.daemon.warm_s;
  set "store.warm_loaded" (float_of_int st.daemon.warm_loaded);
  (match cache with
  | Some c ->
      let n = c.Plan_cache.hits + c.Plan_cache.misses in
      set "plan_cache.lookups" (float_of_int n);
      set "plan_cache.hit_ratio" (float_of_int c.Plan_cache.hits /. float_of_int (max 1 n));
      set "plan_cache.evictions" (float_of_int c.Plan_cache.evictions)
  | None -> ());
  (match store with
  | Some s ->
      let n = s.Sw_host.Store.hits + s.Sw_host.Store.misses in
      set "store.lookups" (float_of_int n);
      set "store.hit_ratio" (float_of_int s.Sw_host.Store.hits /. float_of_int (max 1 n));
      set "store.puts" (float_of_int s.Sw_host.Store.puts);
      set "store.served_corrupt" (float_of_int s.Sw_host.Store.served_corrupt)
  | None -> ());
  (* wire codec on recorded frames *)
  let wire_dec = ref [] and wire_enc = ref [] and resp_kb = ref [] in
  List.iteri
    (fun i h ->
      match h.result with
      | None -> ()
      | Some r ->
          let id = Printf.sprintf "w%d" i in
          let frame = Sw_host.Wire.encode_request { Sw_host.Wire.id; meth = h.hmeth; params = h.params } in
          let _, dt =
            Util.time (fun () ->
                Util.span rec_ ~cat:"daemon" ~id "wire.decode_request" (fun () ->
                    Sw_host.Wire.decode_request frame))
          in
          wire_dec := dt :: !wire_dec;
          let resp = Sw_host.Wire.response_of_result ~id r in
          let s, dt =
            Util.time (fun () ->
                Util.span rec_ ~cat:"daemon" ~id "wire.encode_response" (fun () ->
                    Sw_host.Wire.encode_response resp))
          in
          wire_enc := dt :: !wire_enc;
          resp_kb := (float_of_int (String.length s) /. 1024.0) :: !resp_kb)
    handled;
  set "wire.decode_us" (1e6 *. Util.median !wire_dec);
  set "wire.encode_us" (1e6 *. Util.median !wire_enc);
  set "wire.response_kb" (Util.median !resp_kb);
  (* session tiers and the plan codec: the served stream replayed in
     request order through a fresh session and store *)
  let dir = Util.fresh_dir ~work:st.work "store" in
  let session = Session.create ~store_dir:dir ~arch:config () in
  let hit = ref [] and stored = ref [] and cold = ref [] and plans = ref [] in
  let compile_ms = ref [] and pass_ms = ref [] in
  List.iter
    (fun s ->
      let r = req s.idx in
      let id = Printf.sprintf "r%d" s.idx in
      let sess = match r.opts with Some op -> Session.with_options session op | None -> session in
      let c, t, dt =
        tier session (fun () ->
            Util.span rec_ ~cat:"session" ~id "session.run" (fun () -> Session.run sess r.spec))
      in
      (match t with
      | `Hit -> hit := dt :: !hit
      | `Store -> stored := dt :: !stored
      | `Cold -> (
          cold := dt :: !cold;
          match c with
          | Ok c ->
              if List.length !plans < 64 then plans := c :: !plans;
              compile_ms := dt :: !compile_ms;
              List.iter
                (fun (p : Pass.stat) ->
                  if p.Pass.ran then pass_ms := (p.Pass.pass, 1000.0 *. p.Pass.seconds) :: !pass_ms)
                c.Compile.pass_stats
          | Error _ -> ())))
    (List.sort (fun a b -> compare a.idx b.idx) samples);
  Util.rm_rf dir;
  set "session.hit_us" (1e6 *. Util.median !hit);
  set "session.store_ms" (1000.0 *. Util.median !stored);
  set "session.cold_ms" (1000.0 *. Util.median !cold);
  set "compile.cold_ms" (1000.0 *. Util.median !compile_ms);
  List.iter
    (fun p ->
      set ("pass." ^ p ^ "_ms")
        (Util.median (List.filter_map (fun (q, ms) -> if q = p then Some ms else None) !pass_ms)))
    Util.passes;
  let enc = ref [] and dec = ref [] and kb = ref [] in
  List.iteri
    (fun i c ->
      let id = Printf.sprintf "p%d" i in
      let img, dt =
        Util.time (fun () -> Util.span rec_ ~cat:"session" ~id "codec.encode" (fun () -> Compile.encode_plan c))
      in
      enc := dt :: !enc;
      kb := (float_of_int (String.length img) /. 1024.0) :: !kb;
      let back, dt =
        Util.time (fun () -> Util.span rec_ ~cat:"session" ~id "codec.decode" (fun () -> Compile.decode_plan img))
      in
      dec := dt :: !dec;
      if back = None then Util.problem o "plan codec failed to decode a served plan")
    !plans;
  set "codec.encode_us" (1e6 *. Util.median !enc);
  set "codec.decode_us" (1e6 *. Util.median !dec);
  set "codec.plan_kb" (Util.median !kb);
  let p50 = Util.get o "p50_ms" /. 1000.0 in
  let tp50 = Util.median (List.map Util.median tlat) in
  set "trace.overhead_pct" (100.0 *. (tp50 -. p50) /. p50);
  Util.record_self_times o rec_;
  Util.write_chrome rec_ ~path:(Filename.concat out "trace_serve_mixed.json");
  Printf.printf
    "  tiers (replayed): %d hit, %d store, %d cold; handler compile p50 %.3f ms, profile p50 %.3f ms\n"
    (List.length !hit) (List.length !stored) (List.length !cold)
    (Util.get o "service.compile_ms") (Util.get o "service.profile_ms");
  Printf.printf "  traced open-loop p50 %.3f ms: tracing overhead %.2f%%\n" (1000.0 *. tp50)
    (Util.get o "trace.overhead_pct")
