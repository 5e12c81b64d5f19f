(* Regenerate the committed golden files.

   With no argument, writes into test/golden/ (the committed location).
   The golden-drift guard (`dune build @golden`, see test/dune) runs it
   into a scratch directory instead and diffs against the committed files,
   so a generator change that silently alters the goldens fails CI until
   they are regenerated and reviewed. *)

let () =
  let dir =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let session = Sw_core.Session.create ~arch:Sw_arch.Config.sw26010pro () in
  let spec = Sw_core.Spec.make ~m:512 ~n:512 ~k:512 () in
  let c = Sw_core.Compile.run_exn session spec in
  let write p s =
    Out_channel.with_open_text (Filename.concat dir p) (fun oc ->
        output_string oc s)
  in
  write "gemm512_tree.txt" (Sw_tree.Tree.to_string c.Sw_core.Compile.tree);
  write "gemm512_cpe.c" (Sw_core.Cemit.cpe_file c);
  write "gemm512_mpe.c" (Sw_core.Cemit.mpe_file c);
  let fused =
    Sw_core.Compile.run_exn session
      (Sw_core.Spec.make
         ~fusion:(Sw_core.Spec.Epilogue "relu")
         ~batch:2 ~m:512 ~n:512 ~k:512 ())
  in
  write "fused_batched_tree.txt"
    (Sw_tree.Tree.to_string fused.Sw_core.Compile.tree);
  write "common_flags_help.txt" (Sw_cli.Common_flags.help_plain ());
  Printf.printf "golden files written to %s\n" dir
