(* Golden tests: the generated artifacts for a fixed problem are pinned
   byte-for-byte. Any change to the transformation pipeline, the AST
   generator or the C printer that alters the output shows up here as an
   explicit diff (regenerate with `dune exec bin/gen_golden.exe` from the
   repository root and review the change). *)

open Sw_core
open Sw_arch

let compile_exn = Helpers.compile_exn

let read_golden name =
  In_channel.with_open_text (Filename.concat (Helpers.beside_exe "golden") name)
    In_channel.input_all

let diff_message ~name expected actual =
  (* locate the first differing line for a readable failure *)
  let el = String.split_on_char '\n' expected in
  let al = String.split_on_char '\n' actual in
  let rec first_diff i = function
    | e :: es, a :: as_ ->
        if String.equal e a then first_diff (i + 1) (es, as_)
        else Some (i, e, a)
    | e :: _, [] -> Some (i, e, "<end of output>")
    | [], a :: _ -> Some (i, "<end of golden>", a)
    | [], [] -> None
  in
  match first_diff 1 (el, al) with
  | None -> Printf.sprintf "%s: contents equal but lengths differ" name
  | Some (line, e, a) ->
      Printf.sprintf "%s: first difference at line %d:\n  golden: %s\n  actual: %s"
        name line e a

let check_golden name actual =
  let expected = read_golden name in
  if not (String.equal expected actual) then
    Alcotest.fail (diff_message ~name expected actual)

let gemm512 () =
  compile_exn ~config:Config.sw26010pro (Spec.make ~m:512 ~n:512 ~k:512 ())

let test_tree () =
  check_golden "gemm512_tree.txt" (Sw_tree.Tree.to_string (gemm512 ()).Compile.tree)

let test_cpe () = check_golden "gemm512_cpe.c" (Cemit.cpe_file (gemm512 ()))
let test_mpe () = check_golden "gemm512_mpe.c" (Cemit.mpe_file (gemm512 ()))

let test_common_flags_help () =
  check_golden "common_flags_help.txt" (Sw_cli.Common_flags.help_plain ())

let test_fused_batched_tree () =
  let c =
    compile_exn ~config:Config.sw26010pro
      (Spec.make ~fusion:(Spec.Epilogue "relu") ~batch:2 ~m:512 ~n:512 ~k:512 ())
  in
  check_golden "fused_batched_tree.txt" (Sw_tree.Tree.to_string c.Compile.tree)

let test_determinism () =
  (* two compilations of the same spec are byte-identical *)
  let a = Cemit.cpe_file (gemm512 ()) in
  let b = Cemit.cpe_file (gemm512 ()) in
  Alcotest.(check bool) "deterministic generation" true (String.equal a b)

let tests =
  [
    ("schedule tree (512^3)", `Quick, test_tree);
    ("CPE file (512^3)", `Quick, test_cpe);
    ("MPE file (512^3)", `Quick, test_mpe);
    ("fused batched tree", `Quick, test_fused_batched_tree);
    ("shared CLI flags --help", `Quick, test_common_flags_help);
    ("deterministic generation", `Quick, test_determinism);
  ]

let test_emitted_c_compiles () =
  (* the generated translation units must be genuine C: compile them with
     the host compiler against the emitted stub headers *)
  if Sys.command "command -v gcc > /dev/null 2> /dev/null" <> 0 then ()
  else begin
    let dir = Filename.temp_dir "swgemm" "emit" in
    List.iter
      (fun spec ->
        let compiled = compile_exn ~config:Config.sw26010pro spec in
        let mpe, cpe = Cemit.write_files compiled ~dir in
        List.iter
          (fun path ->
            let cmd =
              Printf.sprintf
                "gcc -std=c99 -fsyntax-only -Wall -Werror -I %s %s"
                (Filename.quote dir) (Filename.quote path)
            in
            if Sys.command cmd <> 0 then
              Alcotest.failf "gcc rejected %s" path)
          [ mpe; cpe ])
      [
        Spec.make ~m:1024 ~n:1024 ~k:1024 ();
        Spec.make ~batch:2 ~fusion:(Spec.Epilogue "tanh") ~m:512 ~n:512 ~k:512 ();
        Spec.make ~ta:true ~tb:true ~m:512 ~n:512 ~k:512 ();
      ]
  end

let tests = tests @ [ ("emitted C compiles (gcc)", `Quick, test_emitted_c_compiles) ]
