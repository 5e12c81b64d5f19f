(* Shared helpers for the test suites. *)

(* Every QCheck property in the repo goes through [qtest], so seed policy
   lives in exactly one place: the random state comes from $QCHECK_SEED
   when set (CI seed matrices, local reproduction of a CI failure) and
   from a fixed default otherwise, and any failure prints the seed it ran
   under together with the command to replay it. *)
let default_qcheck_seed = 0x5377

let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | None | Some "" -> default_qcheck_seed
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None ->
            Printf.eprintf
              "[qcheck] ignoring unparsable QCHECK_SEED=%S; using %d\n%!" s
              default_qcheck_seed;
            default_qcheck_seed))

(* Wrap a QCheck property as an alcotest case, seeded per the policy
   above so runs are reproducible. *)
let qtest ?(count = 200) name gen prop =
  let test = QCheck.Test.make ~count ~name gen prop in
  Alcotest.test_case name `Quick (fun () ->
      let seed = Lazy.force qcheck_seed in
      try QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) test
      with e ->
        Printf.eprintf
          "[qcheck] %S failed under seed %d; replay with QCHECK_SEED=%d dune \
           runtest (or test_main.exe)\n\
           %!"
          name seed seed;
        raise e)

(* Approximate float comparison with relative tolerance. *)
let check_close ?(tol = 1e-9) msg expected actual =
  let scale = max 1.0 (abs_float expected) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* Substring test, for asserting on diagnostic message shapes. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Compare two float arrays elementwise. *)
let check_array_close ?(tol = 1e-9) msg expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" msg (Array.length expected)
      (Array.length actual);
  Array.iteri
    (fun i e ->
      let a = actual.(i) in
      let scale = max 1.0 (abs_float e) in
      if abs_float (e -. a) > tol *. scale then
        Alcotest.failf "%s: index %d: expected %.12g, got %.12g" msg i e a)
    expected

(* Compile under a throwaway cacheless session; raises Sim_error on
   failure. *)
let compile_exn ?options ?debug ?cache ?observer ~config spec =
  Sw_core.Compile.run_exn
    (Sw_core.Session.create ?options ?debug ?cache ~no_cache:true ?observer
       ~arch:config ())
    spec

(* Engine fibers for tests, as scripts: fiber [f] runs the steps
   [steps.(f)] in order, and a step returns [true] when it suspended the
   fiber, which then resumes at the next step. Pass the result as
   [Engine.run ~resume]; fibers beyond the array do nothing. *)
let scripted steps =
  let left = Array.map ref steps in
  fun fid ->
    if fid < Array.length left then begin
      let rec go () =
        match !(left.(fid)) with
        | [] -> ()
        | s :: rest ->
            left.(fid) := rest;
            if not (s fid) then go ()
      in
      go ()
    end

(* A step that only runs [f]. *)
let now_do f _ =
  f ();
  false

(* A data directory that the build copies beside the test executable
   (the [data] alias of test/dune), so a test finds it from any working
   directory. *)
let beside_exe name = Filename.concat (Filename.dirname Sys.executable_name) name
