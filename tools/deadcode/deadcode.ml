(* Dead-export checker.

     deadcode ALLOWLIST

   Run from the root of a source tree. For every [val] declared at the top
   level of an interface under [lib/], look for a caller in the [.ml] files
   under [lib/ bin/ bench/ examples/ perfbench/], not counting the module's
   own implementation. [test/] is never scanned, so a value only tests call
   has no caller. Exit 1 naming each value with no caller that is not on
   the allowlist, and each allowlist entry that is stale: its value now has
   a caller or no longer exists.

   A caller is found syntactically, erring towards "called":
   - [M.v] (through any library prefix or file-local [module X = M] alias)
     calls [v] of module [M];
   - a bare [v] calls [M.v] for every module [M] that the file opens
     ([open M], [let open M in], [M.( ... )] or [include M]);
   - a module used whole ([F (M)], [(module M)], [include M]) calls every
     value of [M].

   The allowlist has one entry a line, [Module.value reason]; the reason
   is required. Blank lines and lines starting with [#] are ignored. *)

open Parsetree

let export_dir = "lib"
let caller_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]

(* Dot-named entries are skipped: under _build they hold dune's object
   directories. *)
let rec files_under dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if name.[0] = '.' then []
           else if Sys.is_directory path then files_under path
           else [ path ])

let module_of_file path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let parse path parser =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      try parser lexbuf
      with exn ->
        Location.report_exception Format.err_formatter exn;
        exit 2)

(* Top-level [val]s of one interface: (name, line). *)
let exports path =
  parse path Parse.interface
  |> List.filter_map (fun item ->
         match item.psig_desc with
         | Psig_value vd ->
             Some (vd.pval_name.txt, vd.pval_loc.loc_start.pos_lnum)
         | _ -> None)

(* What one implementation file calls. *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (* (module, value) *)
  bare : (string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  whole : (string, unit) Hashtbl.t;
}

let uses_of path =
  let u =
    {
      qualified = Hashtbl.create 64;
      bare = Hashtbl.create 64;
      opened = Hashtbl.create 8;
      whole = Hashtbl.create 8;
    }
  in
  let aliases = Hashtbl.create 8 in
  let module_name lid =
    let last = Longident.last lid in
    Option.value (Hashtbl.find_opt aliases last) ~default:last
  in
  let alias (name : string option Location.loc) me =
    match (name.txt, me.pmod_desc) with
    | Some x, Pmod_ident lid ->
        Hashtbl.replace aliases x (module_name lid.txt);
        true
    | _ -> false
  in
  let open_ (od : open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident lid ->
        Hashtbl.replace u.opened (module_name lid.txt) ();
        true
    | _ -> false
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident v; _ } -> Hashtbl.replace u.bare v ()
    | Pexp_ident { txt = Ldot (m, v); _ } ->
        Hashtbl.replace u.qualified (module_name m, v) ()
    | Pexp_open (od, body) when open_ od -> it.Ast_iterator.expr it body
    | Pexp_letmodule (x, me, body) when alias x me -> it.expr it body
    | _ -> super.expr it e
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_module { pmb_name; pmb_expr; _ } when alias pmb_name pmb_expr -> ()
    | Pstr_open od when open_ od -> ()
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        Hashtbl.replace u.opened (module_name lid.txt) ();
        Hashtbl.replace u.whole (module_name lid.txt) ()
    | _ -> super.structure_item it si
  in
  let module_expr it me =
    match me.pmod_desc with
    | Pmod_ident lid -> Hashtbl.replace u.whole (module_name lid.txt) ()
    | _ -> super.module_expr it me
  in
  let it = { super with expr; structure_item; module_expr } in
  it.structure it (parse path Parse.implementation);
  u

let called_from u (m, v) =
  Hashtbl.mem u.qualified (m, v)
  || Hashtbl.mem u.whole m
  || (Hashtbl.mem u.bare v && Hashtbl.mem u.opened m)

let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (n, line) ->
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some k when String.trim (String.sub line k (String.length line - k)) <> "" ->
               Some (String.sub line 0 k, n)
           | _ ->
               Printf.eprintf "%s:%d: entry %S needs a reason\n" path n line;
               exit 2)

let () =
  let allowlist =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: deadcode ALLOWLIST";
        exit 2
  in
  let with_ext ext = List.filter (fun f -> Filename.check_suffix f ext) in
  let callers =
    List.concat_map files_under caller_dirs
    |> with_ext ".ml"
    |> List.map (fun f -> (module_of_file f, uses_of f))
  in
  let allowed = read_allowlist allowlist in
  let problems = ref 0 in
  let report fmt =
    incr problems;
    Printf.printf fmt
  in
  (* "Module.value" of every export -> whether it has a caller *)
  let called = Hashtbl.create 512 in
  List.iter
    (fun mli ->
      let m = module_of_file mli in
      List.iter
        (fun (v, line) ->
          let name = m ^ "." ^ v in
          let c =
            List.exists
              (fun (owner, u) -> owner <> m && called_from u (m, v))
              callers
          in
          Hashtbl.replace called name c;
          if not (c || List.mem_assoc name allowed) then
            report "%s:%d: %s has no caller outside test/ and is not allowlisted\n"
              mli line name)
        (exports mli))
    (with_ext ".mli" (files_under export_dir));
  List.iter
    (fun (name, line) ->
      match Hashtbl.find_opt called name with
      | None -> report "%s:%d: stale entry %s: no such export\n" allowlist line name
      | Some true ->
          report "%s:%d: stale entry %s: it now has a caller\n" allowlist line name
      | Some false -> ())
    allowed;
  if !problems > 0 then (
    Printf.printf "deadcode: %d problem(s)\n" !problems;
    exit 1)
