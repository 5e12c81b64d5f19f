(* The host-speed benchmark: one command, three workloads, an untraced run
   for the end-to-end metrics and a traced run for the per-layer ones.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]

   Everything it writes goes under DIR (default .bench_build/perfbench).
   The last line of standard output is the JSON result. *)

let workloads = [ "tune_cold"; "serve_mixed"; "fuzz_conformance" ]

(* A workload after set-up: how to run it, and how to tear it down. *)
type instance = {
  run : Util.outcome -> trace:bool -> unit;
  teardown : unit -> unit;
}

let setup name ~work ~seed ~seconds =
  let out = Filename.concat work "out" in
  Util.mkdir_p out;
  match name with
  | "tune_cold" ->
      let st = Tune_cold.setup ~work in
      {
        run =
          (fun o ~trace ->
            if trace then Tune_cold.run_traced st o ~out
            else Tune_cold.run_plain st o ~seconds);
        teardown = (fun () -> Tune_cold.teardown st);
      }
  | "serve_mixed" ->
      let st = Serve_mixed.setup ~work ~seed in
      {
        run =
          (fun o ~trace ->
            if trace then Serve_mixed.run_traced st o ~seconds ~out
            else Serve_mixed.run_plain st o ~seconds);
        teardown = (fun () -> Serve_mixed.teardown st);
      }
  | "fuzz_conformance" ->
      let st = Fuzz_conformance.setup ~work ~seed in
      {
        run =
          (fun o ~trace ->
            if trace then Fuzz_conformance.run_traced st o ~out
            else Fuzz_conformance.run_plain st o ~seconds);
        teardown = (fun () -> Fuzz_conformance.teardown st);
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Set-up time: process start to the first timed operation. A fresh copy
   of this program is spawned, sets the workload up, reports "ready" and
   exits; the median of several spawns is reported, in reference seconds
   like every other time. *)
let setup_spawns = 5

let spawn_setup args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: "--setup-only" :: args) in
  let t0 = Util.now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = Util.now () -. t0 in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when line = "ready" -> dt
  | _ -> failwith "set-up probe failed"

let metric_json values (name, unit) =
  ( name,
    Sw_obs.Json.Obj
      [ ("value", Sw_obs.Json.Float (values name)); ("unit", Sw_obs.Json.String unit) ] )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and work = ref ".bench_build/perfbench" in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--work", Arg.Set_string work, " scratch and output directory");
      ("--setup-only", Arg.Set setup_only, " set up, report ready, exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  Util.mkdir_p !work;
  let work = !work and seed = !seed and seconds = !seconds in
  if !setup_only then begin
    let inst = setup !workload ~work ~seed ~seconds in
    print_endline "ready";
    inst.teardown ();
    exit 0
  end;
  let args =
    [ "--workload"; !workload; "--seed"; string_of_int seed; "--work"; work ]
  in
  let before = Util.calibrate () in
  let spawns = List.init setup_spawns (fun _ -> spawn_setup args) in
  let setup_s = Util.normalize ~before ~after:(Util.calibrate ()) (Util.median spawns) in
  let traced = !trace = 1 in
  Printf.printf "perfbench %s: seed %d, %.0f s, trace %d\n%!" !workload seed seconds
    !trace;
  let o = Util.outcome () in
  let inst = setup !workload ~work ~seed ~seconds in
  Fun.protect ~finally:inst.teardown (fun () -> inst.run o ~trace:traced);
  Util.set o "setup_s" setup_s;
  Util.set o "peak_rss_mb" (Util.peak_rss_mb ());
  Util.set o "ok_ratio"
    (float_of_int (o.Util.attempted - o.Util.failed)
    /. float_of_int (max 1 o.Util.attempted));
  let catalogue = if traced then Util.per_layer else Util.end_to_end in
  Printf.printf "%s metrics (%s):\n"
    (if traced then "per-layer" else "end-to-end")
    !workload;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-32s %14.6g %s\n" name (Util.get o name) unit)
    catalogue;
  let problems = List.rev o.Util.problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let correct = problems = [] && o.Util.failed = 0 && o.Util.attempted > 0 in
  print_endline
    (Sw_obs.Json.to_string
       (Sw_obs.Json.Obj
          [
            ("correct", Sw_obs.Json.Bool correct);
            ("attempted", Sw_obs.Json.Int o.Util.attempted);
            ("failed", Sw_obs.Json.Int o.Util.failed);
            ("metrics", Sw_obs.Json.Obj (List.map (metric_json (Util.get o)) catalogue));
          ]));
  exit (if correct then 0 else 1)
