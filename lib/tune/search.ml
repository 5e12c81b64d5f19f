open Sw_core
module Config = Sw_arch.Config

type verdict =
  | Measured of float
  | Legality of string
  | Bound_pruned of { bound : float; best : float }
  | Budget_pruned of { bound : float }
  | Failed of string

type entry = { candidate : Space.candidate; verdict : verdict }

type outcome = {
  winner : Space.candidate;
  gflops : float;
  default_gflops : float;
  entries : entry list;
  measurements : int;
  from_db : bool;
}

let default_budget = 24

(* Round size is a fixed constant, NOT derived from [jobs]: the set of
   candidates alive at each bound-pruning point must be identical whether
   the round ran on one domain or eight. *)
let round_size = 4

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

let measure_realized ~(spec : Spec.t) (c : Space.candidate)
    (rz : Space.realized) =
  let gemm_spec =
    if c.Space.fuse then spec else { spec with Spec.fusion = Spec.No_fusion }
  in
  let session =
    Session.create ~no_cache:true ~options:rz.Space.options ~arch:rz.Space.cfg
      ()
  in
  match Result.bind (Compile.run session gemm_spec) Report.measure with
  | Error e -> Error (Sw_arch.Error.to_string e)
  | Ok { Report.perf; _ } ->
      let batch = Option.value spec.Spec.batch ~default:1 in
      let split_pass =
        (* an unfused winner still owes the element-wise work: charge
           the baseline MPE pass it would run beside the GEMM *)
        if c.Space.fuse then 0.0
        else
          match spec.Spec.fusion with
          | Spec.No_fusion -> 0.0
          | Spec.Prologue fn ->
              Config.mpe_ew_seconds rz.Space.cfg ~fn
                ~elems:(spec.Spec.m * spec.Spec.k * batch)
          | Spec.Epilogue fn ->
              Config.mpe_ew_seconds rz.Space.cfg ~fn
                ~elems:(spec.Spec.m * spec.Spec.n * batch)
      in
      let seconds = perf.Runner.seconds +. split_pass in
      if seconds <= 0.0 then Error "measurement returned zero time"
      else Ok (float_of_int (Spec.flops spec) /. seconds /. 1e9)

let measure ~config ~spec c =
  match Space.realize ~config ~spec c with
  | Error e -> Error e
  | Ok rz -> measure_realized ~spec c rz

let ladder ~config spec =
  let default = Space.default config spec in
  let rows =
    List.map
      (fun mk ->
        let c = { default with Space.mk } in
        ( mk,
          Result.bind (Space.realize ~config ~spec c) (fun rz ->
              Result.map
                (fun g -> (g, rz.Space.eff_note))
                (measure_realized ~spec c rz)) ))
      Space.ladder
  in
  let best =
    List.fold_left
      (fun best (mk, r) ->
        match (r, best) with
        | Ok (g, _), Some (_, bg) when g <= bg -> best
        | Ok (g, _), _ -> Some (mk, g)
        | Error _, _ -> best)
      None rows
  in
  (rows, best)

(* ------------------------------------------------------------------ *)
(* The search proper                                                    *)
(* ------------------------------------------------------------------ *)

let rec take n = function
  | x :: rest when n > 0 ->
      let hd, tl = take (n - 1) rest in
      (x :: hd, tl)
  | l -> ([], l)

(* Measured refinement: priority-ordered [queue] of realized candidates,
   consumed in fixed-size rounds. Bound pruning happens only at round
   boundaries against the best of COMPLETED rounds, so the schedule is a
   pure function of the queue order. *)
let refine ~pool ~spec ~budget queue =
  let rec loop queue ~best ~measured entries =
    (* cut everything the best completed measurement already dominates *)
    let pruned, alive =
      match best with
      | None -> ([], queue)
      | Some b ->
          List.partition (fun (_, rz) -> rz.Space.bound <= b) queue
    in
    let entries =
      List.fold_left
        (fun es (c, rz) ->
          {
            candidate = c;
            verdict =
              Bound_pruned
                { bound = rz.Space.bound; best = Option.get best };
          }
          :: es)
        entries pruned
    in
    match alive with
    | [] -> (entries, measured)
    | _ when budget - measured <= 0 ->
        ( List.fold_left
            (fun es (c, rz) ->
              { candidate = c; verdict = Budget_pruned { bound = rz.Space.bound } }
              :: es)
            entries alive,
          measured )
    | _ ->
        let batch, rest = take (min round_size (budget - measured)) alive in
        let results =
          Sw_host.Pool.map pool
            (fun (c, rz) -> (c, measure_realized ~spec c rz))
            batch
        in
        let entries =
          List.fold_left
            (fun es (c, r) ->
              let verdict =
                match r with Ok g -> Measured g | Error e -> Failed e
              in
              { candidate = c; verdict } :: es)
            entries results
        in
        let best =
          List.fold_left
            (fun b (_, r) ->
              match (b, r) with
              | None, Ok g -> Some g
              | Some b0, Ok g when g > b0 -> Some g
              | _ -> b)
            best results
        in
        loop rest ~best ~measured:(measured + List.length batch) entries
  in
  loop queue ~best:None ~measured:0 []

let run ?(budget = default_budget) ?jobs ?db ~config spec =
  match Option.bind db (fun d -> Tune_db.find d ~spec ~config) with
  | Some (r : Tune_db.record) ->
      Ok
        {
          winner = r.Tune_db.winner;
          gflops = r.Tune_db.gflops;
          default_gflops = r.Tune_db.default_gflops;
          entries = [];
          measurements = 0;
          from_db = true;
        }
  | None ->
      let jobs = Option.value jobs ~default:1 in
      let default_c = Space.default config spec in
      let legal, feasible =
        List.partition_map
          (fun c ->
            match Space.realize ~config ~spec c with
            | Error e -> Left { candidate = c; verdict = Legality e }
            | Ok rz -> Right (c, rz))
          (Space.enumerate ~config ~spec)
      in
      (* paper default leads; the rest by optimism, key as tie-break *)
      let queue =
        List.sort
          (fun (a, ra) (b, rb) ->
            match (a = default_c, b = default_c) with
            | true, false -> -1
            | false, true -> 1
            | _ ->
                let byb = compare rb.Space.bound ra.Space.bound in
                if byb <> 0 then byb else compare (Space.key a) (Space.key b))
          feasible
      in
      let measured_entries, measurements =
        Sw_host.Pool.with_pool ~jobs (fun pool ->
            refine ~pool ~spec ~budget queue)
      in
      let entries =
        List.sort
          (fun a b -> compare (Space.key a.candidate) (Space.key b.candidate))
          (legal @ measured_entries)
      in
      let winner =
        List.fold_left
          (fun acc e ->
            match e.verdict with
            | Measured g -> (
                match acc with
                | None -> Some (e.candidate, g)
                | Some (c0, g0) ->
                    if
                      g > g0
                      || (g = g0 && Space.key e.candidate < Space.key c0)
                    then Some (e.candidate, g)
                    else acc)
            | _ -> acc)
          None entries
      in
      let find_gflops c =
        List.find_map
          (fun e ->
            match e.verdict with
            | Measured g when e.candidate = c -> Some g
            | _ -> None)
          entries
      in
      match winner with
      | None ->
          Error
            (Printf.sprintf
               "tuning found no measurable candidate for %s (of %d enumerated)"
               (Spec.to_string spec)
               (List.length entries))
      | Some (winner, gflops) ->
          let default_gflops =
            Option.value (find_gflops default_c) ~default:0.0
          in
          let pruned =
            List.length
              (List.filter
                 (fun e ->
                   match e.verdict with
                   | Legality _ | Bound_pruned _ | Budget_pruned _ -> true
                   | Measured _ | Failed _ -> false)
                 entries)
          in
          Option.iter
            (fun d ->
              Tune_db.put d
                {
                  Tune_db.shape_class = Tune_db.shape_class spec;
                  mesh_class = Tune_db.mesh_class config;
                  winner;
                  gflops;
                  default_gflops;
                  measured = measurements;
                  pruned;
                })
            db;
          Ok
            {
              winner;
              gflops;
              default_gflops;
              entries;
              measurements;
              from_db = false;
            }

(* ------------------------------------------------------------------ *)
(* Session integration                                                  *)
(* ------------------------------------------------------------------ *)

let session_hook ~db ~config =
  let memo : (string, (Config.t * Options.t) option) Hashtbl.t =
    Hashtbl.create 16
  in
  let lock = Mutex.create () in
  fun spec ->
    let k = Tune_db.key ~spec ~config in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt memo k with
        | Some v -> v
        | None ->
            let v =
              match Tune_db.find db ~spec ~config with
              | None -> None
              | Some r -> (
                  (* the compile path always keeps the spec's own fusion,
                     so realize the winner's tile with fusion in place *)
                  match
                    Space.realize ~config ~spec
                      { r.Tune_db.winner with Space.fuse = true }
                  with
                  | Ok rz -> Some (rz.Space.cfg, rz.Space.options)
                  | Error _ -> None)
            in
            Hashtbl.add memo k v;
            v)
