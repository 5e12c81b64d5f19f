open Sw_poly

type binding = Unbound | Bind_rid | Bind_cid

type member = {
  var : string;
  exprs : (string * Aff.t) list;
  coincident : bool;
  bind : binding;
}

type band = { members : member list; permutable : bool }

type filter = { stmts : string list; preds : Pred.t list }

type ext = { ext_name : string; comm : Comm.t }

type t =
  | Domain of Stmt.t list * t
  | Band of band * t
  | Sequence of (filter * t) list
  | Filter of filter * t
  | Extension of ext list * t
  | Mark of string * t
  | Leaf

let domain stmts child = Domain (stmts, child)
let band ?(permutable = false) members child = Band ({ members; permutable }, child)

let member ?(coincident = false) ?(bind = Unbound) var exprs =
  { var; exprs; coincident; bind }

let sequence children = Sequence children
let filter ?(preds = []) stmts = { stmts; preds }
let extension exts child = Extension (exts, child)
let mark name child = Mark (name, child)
let leaf = Leaf

let initial stmts =
  match stmts with
  | [] -> invalid_arg "Tree.initial: no statements"
  | first :: _ ->
      let common =
        (* longest iterator prefix shared by all statements *)
        List.fold_left
          (fun acc s ->
            let rec prefix a b =
              match (a, b) with
              | x :: a', y :: b' when String.equal x y -> x :: prefix a' b'
              | _ -> []
            in
            prefix acc s.Stmt.iters)
          first.Stmt.iters stmts
      in
      let analysis =
        List.map
          (fun s ->
            ( s.Stmt.name,
              Dep.analyze ~domain:s.Stmt.domain ~accesses:s.Stmt.accesses ))
          stmts
      in
      let members =
        List.mapi
          (fun pos it ->
            let coincident =
              List.for_all
                (fun s ->
                  let r = List.assoc s.Stmt.name analysis in
                  (* position of [it] in this statement's iterators *)
                  match
                    List.find_index (String.equal it) s.Stmt.iters
                  with
                  | Some i -> r.Dep.coincident.(i)
                  | None -> true)
                stmts
            in
            ignore pos;
            {
              var = it;
              exprs = List.map (fun s -> (s.Stmt.name, Aff.var it)) stmts;
              coincident;
              bind = Unbound;
            })
          common
      in
      let permutable =
        List.for_all (fun (_, r) -> r.Dep.permutable) analysis
      in
      Domain (stmts, Band ({ members; permutable }, Leaf))

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Domain (_, c) | Band (_, c) | Filter (_, c) | Extension (_, c) | Mark (_, c)
    ->
      fold f acc c
  | Sequence cs -> List.fold_left (fun acc (_, c) -> fold f acc c) acc cs
  | Leaf -> acc

let stmts t =
  fold (fun acc n -> match n with Domain (ss, _) -> acc @ ss | _ -> acc) [] t

let exts t =
  fold (fun acc n -> match n with Extension (es, _) -> acc @ es | _ -> acc) [] t

(* ------------------------------------------------------------------ *)
(* Tree statistics (pass instrumentation)                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  nodes : int;
  depth : int;
  bands : int;
  band_members : int;
  sequences : int;
  filters : int;
  extensions : int;
  ext_stmts : int;
  marks : int;
  leaves : int;
}

let empty_stats =
  {
    nodes = 0;
    depth = 0;
    bands = 0;
    band_members = 0;
    sequences = 0;
    filters = 0;
    extensions = 0;
    ext_stmts = 0;
    marks = 0;
    leaves = 0;
  }

let stats t =
  let rec go d acc t =
    let acc = { acc with nodes = acc.nodes + 1; depth = max acc.depth d } in
    match t with
    | Domain (_, c) -> go (d + 1) acc c
    | Band (b, c) ->
        go (d + 1)
          {
            acc with
            bands = acc.bands + 1;
            band_members = acc.band_members + List.length b.members;
          }
          c
    | Sequence cs ->
        List.fold_left
          (fun acc (_, c) -> go (d + 1) { acc with filters = acc.filters + 1 } c)
          { acc with sequences = acc.sequences + 1 }
          cs
    | Filter (_, c) -> go (d + 1) { acc with filters = acc.filters + 1 } c
    | Extension (es, c) ->
        go (d + 1)
          {
            acc with
            extensions = acc.extensions + 1;
            ext_stmts = acc.ext_stmts + List.length es;
          }
          c
    | Mark (_, c) -> go (d + 1) { acc with marks = acc.marks + 1 } c
    | Leaf -> { acc with leaves = acc.leaves + 1 }
  in
  go 1 empty_stats t

let validate t =
  let ( let* ) r f = Result.bind r f in
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let stmt_names = List.map (fun s -> s.Stmt.name) (stmts t) in
  let ext_names = List.map (fun e -> e.ext_name) (exts t) in
  let known = stmt_names @ ext_names in
  let* () =
    let sorted = List.sort String.compare known in
    let rec dup = function
      | a :: b :: _ when String.equal a b -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted with
    | Some d -> error "duplicate statement name %s" d
    | None -> Ok ()
  in
  (* Loop-variable names must be unique along every root-to-leaf path (the
     same name may recur in distinct sequence branches, as in the peeled
     trees of Fig. 11). *)
  let rec walk ~root ~active ~vars t =
    match t with
    | Domain (ss, c) ->
        if not root then error "domain node below the root"
        else
          walk ~root:false ~active:(List.map (fun s -> s.Stmt.name) ss) ~vars c
    | Band (b, c) ->
        if b.members = [] then error "empty band"
        else
          let* vars =
            List.fold_left
              (fun acc m ->
                let* vars = acc in
                if List.mem m.var vars then
                  error "duplicate loop variable %s on a path" m.var
                else Ok (m.var :: vars))
              (Ok vars) b.members
          in
          let* () =
            List.fold_left
              (fun acc m ->
                let* () = acc in
                List.fold_left
                  (fun acc name ->
                    let* () = acc in
                    if
                      List.mem name stmt_names
                      && not (List.mem_assoc name m.exprs)
                      && List.mem name active
                    then
                      error "band member %s lacks a schedule for %s" m.var name
                    else Ok ())
                  (Ok ()) active)
              (Ok ()) b.members
          in
          walk ~root:false ~active ~vars c
    | Sequence cs ->
        List.fold_left
          (fun acc (flt, c) ->
            let* () = acc in
            let* () = check_filter flt in
            walk ~root:false ~active:flt.stmts ~vars c)
          (Ok ()) cs
    | Filter (flt, c) ->
        let* () = check_filter flt in
        walk ~root:false ~active:flt.stmts ~vars c
    | Extension (es, c) ->
        walk ~root:false
          ~active:(active @ List.map (fun e -> e.ext_name) es)
          ~vars c
    | Mark (m, c) ->
        if String.equal m "" then error "empty mark string"
        else walk ~root:false ~active ~vars c
    | Leaf -> Ok ()
  and check_filter flt =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        if List.mem s known then Ok () else error "filter on unknown statement %s" s)
      (Ok ()) flt.stmts
  in
  match t with
  | Domain _ -> walk ~root:true ~active:[] ~vars:[] t
  | _ -> error "root must be a domain node"

let to_string t =
  let buffer = Buffer.create 1024 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buffer (String.make (2 * indent) ' ');
        Buffer.add_string buffer s;
        Buffer.add_char buffer '\n')
      fmt
  in
  let filter_to_string flt =
    let preds =
      if flt.preds = [] then ""
      else
        ": " ^ String.concat " and " (List.map Pred.to_string flt.preds)
    in
    Printf.sprintf "{ %s%s }" (String.concat ", " flt.stmts) preds
  in
  let member_to_string m =
    let bind =
      match m.bind with
      | Unbound -> ""
      | Bind_rid -> "=Rid"
      | Bind_cid -> "=Cid"
    in
    let exprs =
      String.concat "; "
        (List.map
           (fun (s, e) -> Printf.sprintf "%s -> %s" s (Aff.to_string e))
           m.exprs)
    in
    Printf.sprintf "%s%s%s [%s]" m.var bind
      (if m.coincident then "*" else "")
      exprs
  in
  let rec go indent t =
    match t with
    | Domain (ss, c) ->
        line indent "DOMAIN: %s"
          (String.concat "; " (List.map Stmt.to_string ss));
        go (indent + 1) c
    | Band (b, c) ->
        line indent "BAND%s: %s"
          (if b.permutable then " (permutable)" else "")
          (String.concat " | " (List.map member_to_string b.members));
        go (indent + 1) c
    | Sequence cs ->
        line indent "SEQUENCE:";
        List.iter
          (fun (flt, c) ->
            line (indent + 1) "FILTER:%s" (filter_to_string flt);
            go (indent + 2) c)
          cs
    | Filter (flt, c) ->
        line indent "FILTER:%s" (filter_to_string flt);
        go (indent + 1) c
    | Extension (es, c) ->
        List.iter
          (fun e -> line indent "EXTENSION: %s := %s" e.ext_name (Comm.to_string e.comm))
          es;
        go (indent + 1) c
    | Mark (m, c) ->
        line indent "MARK: \"%s\"" m;
        go (indent + 1) c
    | Leaf -> line indent "LEAF"
  in
  go 0 t;
  Buffer.contents buffer
