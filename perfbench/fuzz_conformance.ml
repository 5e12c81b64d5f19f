(* fuzz_conformance: seeded Sw_check.Fuzz.run campaigns on the default tiny
   preset mix, with no corpus directory and no fault injection. Every case
   is a one-shot cold compile plus functional simulation, the direct C
   interpretation and the BLAS reference. *)

open Sw_core
module Fuzz = Sw_check.Fuzz
module Case = Sw_check.Case

(* One operation is one campaign of one fuzzer round. *)
let campaign_cases = 16

(* The traced run covers a fixed number of campaigns, so its counts
   repeat exactly at a fixed seed. *)
let traced_campaigns = 8

type state = { work : string; repro : string; seeds : Random.State.t }

let setup ~work ~seed =
  let repro = Util.fresh_dir ~work "fuzz-repro" in
  { work; repro; seeds = Random.State.make [| seed; 0x66757a7a |] }

let teardown st = Util.rm_rf st.repro
let next_seed st = Random.State.bits st.seeds

let settings st ~seed ~print =
  {
    Fuzz.cases = campaign_cases;
    seed;
    jobs = 1;
    archs = None;
    fault = None;
    corpus_dir = None;
    repro_dir = st.repro;
    max_shrink = 0;
    sabotage = None;
    print;
  }

(* One campaign, gated on zero disagreements; its raw and reference
   seconds. *)
let campaign st (o : Util.outcome) ~clock ~seed ~print =
  let s, raw, dt = Util.timed clock (fun () -> Fuzz.run (settings st ~seed ~print)) in
  let bad = List.length s.Fuzz.disagreements in
  o.Util.attempted <- o.Util.attempted + s.Fuzz.total;
  o.Util.failed <- o.Util.failed + bad;
  List.iter
    (fun (f : Fuzz.failure_record) ->
      Util.problem o "fuzz seed %d: %s: %s (%s)" seed f.Fuzz.stage
        f.Fuzz.detail (Case.to_string f.Fuzz.original))
    s.Fuzz.disagreements;
  (raw, dt)

let run_plain st o ~seconds =
  let clock = Util.clock () in
  let t0 = Util.now () in
  let rec loop acc =
    let acc = campaign st o ~clock ~seed:(next_seed st) ~print:ignore :: acc in
    if Util.now () -. t0 < seconds then loop acc else acc
  in
  let raw, lat = List.split (loop []) in
  let tail, q = Util.tail lat in
  Util.set o "p50_ms" (1000.0 *. Util.median lat);
  Util.set o "tail_ms" (1000.0 *. tail);
  Util.set o "throughput_per_s" (float_of_int o.Util.attempted /. Util.sum lat);
  Printf.printf
    "fuzz_conformance: %d campaign(s) of %d case(s), %d disagreement(s)\n"
    (List.length lat) campaign_cases o.Util.failed;
  Printf.printf
    "  per campaign: p50 %.1f ms, tail p%.0f %.1f ms (n=%d); %.1f cases/s \
     (raw host: p50 %.1f ms, %.1f cases/s)\n"
    (Util.get o "p50_ms") (100.0 *. q) (Util.get o "tail_ms") (List.length lat)
    (Util.get o "throughput_per_s")
    (1000.0 *. Util.median raw)
    (float_of_int o.Util.attempted /. Util.sum raw)

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

let batch_count (spec : Spec.t) = Option.value spec.Spec.batch ~default:1

(* Random inputs at the case's stored sizes, one matrix per batch. *)
let inputs (case : Case.t) =
  let spec = case.Case.spec in
  let mk rows cols salt =
    Array.init (batch_count spec) (fun b ->
        Sw_blas.Matrix.random ~rows ~cols
          ~seed:(case.Case.data_seed + (31 * b) + salt))
  in
  let m = spec.Spec.m and n = spec.Spec.n and k = spec.Spec.k in
  ( (if spec.Spec.ta then mk k m 1 else mk m k 1),
    (if spec.Spec.tb then mk n k 2 else mk k n 2),
    mk m n 3 )

(* 3-D arrays cross into Exec as one [batch*rows x cols] matrix. *)
let flatten (mats : Sw_blas.Matrix.t array) =
  let rows = mats.(0).Sw_blas.Matrix.rows and cols = mats.(0).Sw_blas.Matrix.cols in
  let out = Sw_blas.Matrix.create ~rows:(Array.length mats * rows) ~cols in
  Array.iteri
    (fun b m -> Sw_blas.Matrix.blit_into ~src:m ~dst:out ~row:(b * rows) ~col:0)
    mats;
  out

(* The oracle's direct-interpretation route: render, parse, execute. *)
let exec_route (case : Case.t) =
  let spec = case.Case.spec in
  let a, b, c = inputs case in
  let func = Sw_frontend.Parser.parse (Sw_check.Csrc.render spec) in
  Sw_frontend.Exec.run
    ~fbindings:[ ("alpha", spec.Spec.alpha); ("beta", spec.Spec.beta) ]
    func
    ~arrays:[ ("A", flatten a); ("B", flatten b); ("C", flatten c) ]

(* The oracle's reference route. *)
let blas_route (case : Case.t) =
  let spec = case.Case.spec in
  let a, b, c = inputs case in
  let orient t x = if t then Array.map Sw_blas.Matrix.transpose x else x in
  let a = orient spec.Spec.ta a and b = orient spec.Spec.tb b in
  let alpha = spec.Spec.alpha and beta = spec.Spec.beta in
  Array.iteri
    (fun i ai ->
      match spec.Spec.fusion with
      | Spec.No_fusion -> Sw_blas.Dgemm.gemm ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i)
      | Spec.Prologue fn ->
          Sw_blas.Dgemm.fused_prologue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i)
      | Spec.Epilogue fn ->
          Sw_blas.Dgemm.fused_epilogue ~fn ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i))
    a

let events_of f =
  let reg = Sw_obs.Metrics.create () in
  Sw_obs.Metrics.install reg;
  Fun.protect ~finally:Sw_obs.Metrics.uninstall f;
  match Sw_obs.Metrics.find (Sw_obs.Metrics.snapshot reg) "sim.events_total" with
  | Some (Sw_obs.Metrics.Counter n) -> float_of_int n
  | _ -> 0.0

type acc = {
  mutable gen : float list;
  mutable check : float list;
  mutable exec : float list;
  mutable blas : float list;
  mutable compile : float list;
  mutable verify : float list;
  mutable events : float;
  mutable pass_ms : (string * float) list;
}

(* Regenerate a campaign's cases exactly as Fuzz.run draws them (rounds of
   generation, then checks, then corpus notes, in case order) and call
   each layer the oracle uses in its own span under the case id. The
   regenerated cases must print as the campaign printed them. *)
let replay rec_ (o : Util.outcome) acc ~seed ~lines =
  let master = Random.State.make [| seed; 0x53774747 |] in
  let corpus = Sw_check.Corpus.create () in
  let lines = ref lines in
  let finished = ref 0 in
  while !finished < campaign_cases do
    (* 16 is Fuzz.run's fixed round size *)
    let n = min 16 (campaign_cases - !finished) in
    let batch =
      List.init n (fun i ->
          let st = Random.State.split master in
          let id = !finished + i in
          let tag = Printf.sprintf "%d/%04d" seed id in
          let case, dt =
            Util.time (fun () ->
                Util.span rec_ ~cat:"conformance" ~id:tag "gen.case" (fun () ->
                    Sw_check.Gen.generate st ~id
                      ~corpus:(Sw_check.Corpus.pool corpus) ~fault:None))
          in
          acc.gen <- dt :: acc.gen;
          (tag, case))
    in
    List.iter
      (fun (tag, case) ->
        (match !lines with
        | l :: rest ->
            if not (String.ends_with ~suffix:("  " ^ Case.to_string case) l)
            then Util.problem o "fuzz replay diverged at %s: %s" tag l;
            lines := rest
        | [] -> Util.problem o "fuzz replay has no campaign line for %s" tag);
        let span cat name f = Util.time (fun () -> Util.span rec_ ~cat ~id:tag name f) in
        let r, dt = span "conformance" "oracle.check" (fun () -> Sw_check.Oracle.check case) in
        acc.check <- dt :: acc.check;
        (match r with
        | Ok (rep : Sw_check.Oracle.report) ->
            ignore (Sw_check.Corpus.note corpus ~key:rep.Sw_check.Oracle.key case)
        | Error _ -> ());
        let (), dt = span "frontend" "exec.run" (fun () -> exec_route case) in
        acc.exec <- dt :: acc.exec;
        let (), dt = span "blas" "dgemm.reference" (fun () -> blas_route case) in
        acc.blas <- dt :: acc.blas;
        let session =
          Session.create ~no_cache:true ~options:case.Case.options
            ~arch:(Case.config_of case.Case.config) ()
        in
        let compiled, dt =
          span "compiler" "compile.run" (fun () -> Compile.run session case.Case.spec)
        in
        acc.compile <- dt :: acc.compile;
        match compiled with
        | Error _ -> ()
        | Ok compiled ->
            List.iter
              (fun (s : Pass.stat) ->
                if s.Pass.ran then
                  acc.pass_ms <- (s.Pass.pass, 1000.0 *. s.Pass.seconds) :: acc.pass_ms)
              compiled.Compile.pass_stats;
            let v, dt =
              span "simulator" "runner.verify" (fun () -> Runner.verify compiled)
            in
            acc.verify <- dt :: acc.verify;
            if Result.is_error v then Util.problem o "fuzz replay: %s fails Runner.verify" tag;
            (* events counted on a second, untimed run *)
            acc.events <- acc.events +. events_of (fun () -> ignore (Runner.verify compiled)))
      batch;
    finished := !finished + n
  done

let run_traced st o ~out =
  let seeds = List.init traced_campaigns (fun _ -> next_seed st) in
  let clock = Util.clock () in
  let plain o =
    List.map (fun seed -> campaign st o ~clock ~seed ~print:ignore) seeds
  in
  (* untraced warm-up, so the traced and reference passes start alike *)
  ignore (plain (Util.outcome ()));
  (* traced pass: a span per campaign, its printed case lines kept *)
  let rec_ = Util.recorder () in
  let traced =
    List.map
      (fun seed ->
        let lines = ref [] in
        let print l = if String.length l > 0 && l.[0] = '[' then lines := l :: !lines in
        let _, dt =
          Util.span rec_ ~tid:1 ~cat:"conformance" ~id:(string_of_int seed) "fuzz.run"
            (fun () -> campaign st (Util.outcome ()) ~clock ~seed ~print)
        in
        (seed, List.rev !lines, dt))
      seeds
  in
  (* untraced reference pass *)
  let plain = Util.with_gc o (fun () -> plain o) in
  let acc =
    {
      gen = [];
      check = [];
      exec = [];
      blas = [];
      compile = [];
      verify = [];
      events = 0.0;
      pass_ms = [];
    }
  in
  let replayed = Util.recorder () in
  List.iter (fun (seed, lines, _) -> replay replayed o acc ~seed ~lines) traced;
  let set = Util.set o in
  let plain_raw = Util.sum (List.map fst plain) and plain_s = Util.sum (List.map snd plain) in
  let traced_s = Util.sum (List.map (fun (_, _, dt) -> dt) traced) in
  set "fuzz.cases" (float_of_int o.Util.attempted);
  set "fuzz.disagreements" (float_of_int o.Util.failed);
  set "gen.case_us" (1e6 *. Util.median acc.gen);
  set "oracle.check_ms" (1000.0 *. Util.median acc.check);
  set "oracle.exec_ms" (1000.0 *. Util.median acc.exec);
  set "blas.ref_ms" (1000.0 *. Util.median acc.blas);
  set "compile.cold_ms" (1000.0 *. Util.median acc.compile);
  List.iter
    (fun p ->
      set ("pass." ^ p ^ "_ms")
        (Util.median
           (List.filter_map (fun (q, ms) -> if q = p then Some ms else None) acc.pass_ms)))
    Util.passes;
  set "runner.verify_ms" (1000.0 *. Util.median acc.verify);
  set "sim.functional_events_per_s" (acc.events /. Util.sum acc.verify);
  set "trace.overhead_pct" (100.0 *. (traced_s -. plain_s) /. plain_s);
  Util.record_self_times o replayed;
  List.iter (Util.add replayed) rec_.Util.spans;
  Util.write_chrome replayed ~path:(Filename.concat out "trace_fuzz_conformance.json");
  let row name xs =
    Printf.printf "  %-28s %9.3f s (n=%d)\n" name (Util.sum xs) (List.length xs)
  in
  Printf.printf "fuzz_conformance host time by layer (untraced campaigns %.3f s, %d cases)\n"
    plain_raw o.Util.attempted;
  row "Oracle.check" acc.check;
  row "  Gen.generate" acc.gen;
  row "  Exec (direct C)" acc.exec;
  row "  Dgemm reference" acc.blas;
  row "  Compile.run" acc.compile;
  row "  Runner.verify" acc.verify;
  Printf.printf
    "  traced campaigns %.3f reference s against %.3f untraced: tracing overhead %.2f%%\n"
    traced_s plain_s
    (Util.get o "trace.overhead_pct")
