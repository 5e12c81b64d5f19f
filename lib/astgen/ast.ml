open Sw_poly
open Sw_tree

type stmt =
  | For of { var : string; lbs : Aff.t list; ubs : Aff.t list; body : block }
  | Let of { var : string; value : Aff.t; body : block }
  | If of { conds : Pred.t list; body : block }
  | Op of Comm.t
  | User of { name : string; args : (string * Aff.t) list }
  | Comment of string

and block = stmt list

type spm_decl = { buf_name : string; rows : int; cols : int; copies : int }

type array_decl = { array_name : string; dims : int list }

type program = {
  prog_name : string;
  params : (string * int) list;
  arrays : array_decl list;
  spm_decls : spm_decl list;
  replies : string list;
  body : block;
}

let spm_bytes p =
  List.fold_left
    (fun acc d -> acc + (8 * d.rows * d.cols * d.copies))
    0 p.spm_decls

let free_params p =
  let acc = ref [] in
  let add_aff a = acc := Aff.free_params a @ !acc in
  let add_comm (c : Comm.t) =
    let add_buf (b : Comm.buf) =
      match b.Comm.parity with Some e -> add_aff e | None -> ()
    in
    let add_opt = function Some e -> add_aff e | None -> () in
    match c with
    | Comm.Dma_get d | Comm.Dma_put d ->
        add_buf d.Comm.spm;
        add_opt d.Comm.batch;
        add_aff d.Comm.row_lo;
        add_aff d.Comm.col_lo;
        add_opt d.Comm.reply_parity
    | Comm.Rma_bcast r ->
        add_buf r.Comm.src;
        add_buf r.Comm.dst;
        add_aff r.Comm.root;
        add_opt r.Comm.reply_parity
    | Comm.Wait w -> add_opt w.reply_parity
    | Comm.Sync -> ()
    | Comm.Spm_map s -> add_buf s.target
    | Comm.Kernel k ->
        add_buf k.Comm.c;
        add_buf k.Comm.a;
        add_buf k.Comm.b
  in
  let rec go = function
    | For { lbs; ubs; body; _ } ->
        List.iter add_aff lbs;
        List.iter add_aff ubs;
        List.iter go body
    | Let { value; body; _ } ->
        add_aff value;
        List.iter go body
    | If { conds; body } ->
        List.iter
          (fun (p : Pred.t) ->
            add_aff p.Pred.lhs;
            add_aff p.Pred.rhs)
          conds;
        List.iter go body
    | Op c -> add_comm c
    | User { args; _ } -> List.iter (fun (_, a) -> add_aff a) args
    | Comment _ -> ()
  in
  List.iter go p.body;
  List.filter
    (fun s -> not (String.equal s "Rid" || String.equal s "Cid"))
    (List.sort_uniq String.compare !acc)

let to_string block =
  let buffer = Buffer.create 1024 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buffer (String.make (2 * indent) ' ');
        Buffer.add_string buffer s;
        Buffer.add_char buffer '\n')
      fmt
  in
  let bound_list ~comb = function
    | [ e ] -> Aff.to_string e
    | es ->
        Printf.sprintf "%s(%s)" comb (String.concat ", " (List.map Aff.to_string es))
  in
  let rec go indent s =
    match s with
    | For { var; lbs; ubs; body } ->
        line indent "for (%s = %s; %s <= %s; %s++) {" var
          (bound_list ~comb:"max" lbs)
          var
          (bound_list ~comb:"min" ubs)
          var;
        List.iter (go (indent + 1)) body;
        line indent "}"
    | Let { var; value; body } ->
        line indent "%s = %s;" var (Aff.to_string value);
        List.iter (go indent) body
    | If { conds; body } ->
        line indent "if (%s) {"
          (String.concat " && " (List.map Pred.to_string conds));
        List.iter (go (indent + 1)) body;
        line indent "}"
    | Op c -> line indent "%s;" (Comm.to_string c)
    | User { name; args } ->
        line indent "%s(%s);" name
          (String.concat ", "
             (List.map (fun (_, a) -> Aff.to_string a) args))
    | Comment c -> line indent "/* %s */" c
  in
  List.iter (go 0) block;
  Buffer.contents buffer
