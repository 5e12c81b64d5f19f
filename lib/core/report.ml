module Json = Sw_obs.Json

type t = { compiled : Compile.t; perf : Runner.perf }

let typed f compiled =
  match f compiled with
  | v -> Ok v
  | exception Runner.Runner_error e -> Error (Runner.to_error e)

let measure =
  typed (fun compiled -> { compiled; perf = Runner.measure compiled })

let traced =
  typed (fun compiled ->
      let trace, perf = Runner.traced compiled in
      (trace, { compiled; perf }))

let plan_fields (compiled : Compile.t) =
  [
    ("spec", Spec.to_json compiled.original);
    ("padded", Spec.to_json compiled.spec);
    ("options", Options.to_json compiled.options);
    ("spm_bytes", Json.Int (Sw_ast.Ast.spm_bytes compiled.program));
  ]

let to_json ?(extra = []) { compiled; perf } =
  Json.Obj
    ((("gflops", Json.Float perf.gflops)
     :: ("seconds", Json.Float perf.seconds)
     :: ("exact", Json.Bool perf.exact)
     :: plan_fields compiled)
    @ extra)

let to_text { compiled; perf } =
  Printf.sprintf "%10.2f Gflops (%5.2f%% of peak)%s" perf.gflops
    (100.0 *. perf.gflops /. Sw_arch.Config.peak_gflops compiled.config)
    (if perf.exact then "" else "  [extrapolated]")
