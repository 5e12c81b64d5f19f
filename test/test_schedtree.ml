(* Tests for schedule trees and their transformations. *)

open Sw_poly
open Sw_tree

let check = Alcotest.check
let qtest = Helpers.qtest

let gemm_band () =
  match Tree.initial [ Stmt.gemm () ] with
  | Tree.Domain (_, Tree.Band (b, _)) -> b
  | _ -> Alcotest.fail "initial tree shape"

(* ------------------------------------------------------------------ *)
(* Stmt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gemm_stmt () =
  let s = Stmt.gemm () in
  check (Alcotest.list Alcotest.string) "iters" [ "i"; "j"; "k" ] s.Stmt.iters;
  check (Alcotest.list Alcotest.string) "params" [ "M"; "N"; "K" ] (Stmt.params s);
  check Alcotest.int "accesses" 4 (List.length s.Stmt.accesses);
  check Alcotest.string "render" "S1(i, j, k)" (Stmt.to_string s)

let test_batched_gemm_stmt () =
  let s = Stmt.gemm ~batched:true () in
  check (Alcotest.list Alcotest.string) "iters" [ "b"; "i"; "j"; "k" ] s.Stmt.iters;
  check (Alcotest.list Alcotest.string) "params" [ "B"; "M"; "N"; "K" ] (Stmt.params s)

let test_stmt_make_mismatch () =
  let domain = Bset.universe ~params:[] ~dims:[ "x" ] in
  Alcotest.check_raises "iters mismatch"
    (Invalid_argument "Stmt.make: domain dimensions must equal iterators")
    (fun () ->
      ignore (Stmt.make ~name:"S" ~iters:[ "x"; "y" ] ~domain ~accesses:[]))

(* ------------------------------------------------------------------ *)
(* Pred                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pred_eval () =
  let vars = function "x" -> 5 | _ -> 0 in
  let params = fun _ -> 0 in
  let x = Aff.var "x" in
  check Alcotest.bool "5 = 5" true (Pred.eval ~vars ~params (Pred.eq x (Aff.const 5)));
  check Alcotest.bool "5 < 5 false" false (Pred.eval ~vars ~params { Pred.lhs = x; rel = Pred.Lt; rhs = Aff.const 5 });
  check Alcotest.bool "5 <= 5" true (Pred.eval ~vars ~params (Pred.le x (Aff.const 5)));
  check Alcotest.bool "5 > 4" true (Pred.eval ~vars ~params { Pred.lhs = x; rel = Pred.Gt; rhs = Aff.const 4 });
  check Alcotest.bool "5 >= 6 false" false (Pred.eval ~vars ~params (Pred.ge x (Aff.const 6)))

let test_pred_to_ineqs () =
  let p = Pred.eq (Aff.var "x") (Aff.const 3) in
  check Alcotest.int "eq gives two ineqs" 2 (List.length (Pred.to_ineqs p));
  let q = { Pred.lhs = Aff.var "x"; rel = Pred.Lt; rhs = Aff.const 3 } in
  (match Pred.to_ineqs q with
  | [ e ] ->
      check Alcotest.int "x < 3 at x=2 sat" 0
        (Aff.eval ~vars:(fun _ -> 2) ~params:(fun _ -> 0) e)
  | _ -> Alcotest.fail "expected one inequality");
  check Alcotest.string "render" "x < 3" (Pred.to_string q)

let prop_pred_ineqs_consistent =
  let rels = [ Pred.Eq; Pred.Le; Pred.Lt; Pred.Ge; Pred.Gt ] in
  qtest "to_ineqs agrees with eval"
    QCheck.(triple (int_range 0 4) (int_range (-10) 10) (int_range (-10) 10))
    (fun (ri, x, c) ->
      let rel = List.nth rels ri in
      let p = { Pred.lhs = Aff.var "x"; rel; rhs = Aff.const c } in
      let vars = fun _ -> x and params = fun _ -> 0 in
      Pred.eval ~vars ~params p
      = List.for_all (fun e -> Aff.eval ~vars ~params e >= 0) (Pred.to_ineqs p))

(* ------------------------------------------------------------------ *)
(* Tree construction                                                    *)
(* ------------------------------------------------------------------ *)

let test_initial_tree () =
  let t = Tree.initial [ Stmt.gemm () ] in
  (match t with
  | Tree.Domain ([ s ], Tree.Band (b, Tree.Leaf)) ->
      check Alcotest.string "stmt" "S1" s.Stmt.name;
      check Alcotest.int "3 members" 3 (List.length b.Tree.members);
      check Alcotest.bool "permutable" true b.Tree.permutable;
      check
        (Alcotest.list Alcotest.bool)
        "coincidence from dependence analysis" [ true; true; false ]
        (List.map (fun (m : Tree.member) -> m.Tree.coincident) b.Tree.members)
  | _ -> Alcotest.fail "unexpected shape");
  match Tree.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_initial_batched () =
  let t = Tree.initial [ Stmt.gemm ~batched:true () ] in
  match t with
  | Tree.Domain (_, Tree.Band (b, _)) ->
      check
        (Alcotest.list Alcotest.string)
        "members" [ "b"; "i"; "j"; "k" ]
        (List.map (fun (m : Tree.member) -> m.Tree.var) b.Tree.members);
      check
        (Alcotest.list Alcotest.bool)
        "batch dim is parallel" [ true; true; true; false ]
        (List.map (fun (m : Tree.member) -> m.Tree.coincident) b.Tree.members)
  | _ -> Alcotest.fail "unexpected shape"

let test_validate_rejects () =
  let s = Stmt.gemm () in
  let bad = Tree.band [ Tree.member "i" [] ] Tree.leaf in
  (match Tree.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "root must be domain");
  let dup =
    Tree.domain [ s ]
      (Tree.band
         [ Tree.member "t" [ ("S1", Aff.var "i") ] ]
         (Tree.band [ Tree.member "t" [ ("S1", Aff.var "j") ] ] Tree.leaf))
  in
  (match Tree.validate dup with
  | Error e ->
      check Alcotest.bool "mentions duplicate" true
        (String.length e > 0)
  | Ok () -> Alcotest.fail "duplicate loop var accepted");
  let unknown_filter =
    Tree.domain [ s ] (Tree.Filter (Tree.filter [ "nope" ], Tree.leaf))
  in
  match Tree.validate unknown_filter with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown filter statement accepted"

let test_pretty_print () =
  let t = Tree.initial [ Stmt.gemm () ] in
  let s = Tree.to_string t in
  check Alcotest.bool "has DOMAIN" true
    (String.length s > 0 && String.sub s 0 6 = "DOMAIN");
  let contains sub str =
    let n = String.length sub and m = String.length str in
    let rec go i = i + n <= m && (String.sub str i n = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has BAND" true (contains "BAND" s);
  check Alcotest.bool "has LEAF" true (contains "LEAF" s)

(* ------------------------------------------------------------------ *)
(* Transformations                                                      *)
(* ------------------------------------------------------------------ *)

let eval_member (m : Tree.member) ~stmt ~vars =
  let e = List.assoc stmt m.Tree.exprs in
  Aff.eval ~vars ~params:(fun _ -> 0) e

let test_tile_shape () =
  let b = gemm_band () in
  let outer, inner =
    Transform.tile b ~sizes:[ 64; 64; 32 ] ~names:[ "ti"; "tj"; "tk" ]
  in
  check (Alcotest.list Alcotest.string) "outer vars" [ "ti"; "tj"; "tk" ]
    (List.map (fun (m : Tree.member) -> m.Tree.var) outer.Tree.members);
  check (Alcotest.list Alcotest.string) "inner vars" [ "i"; "j"; "k" ]
    (List.map (fun (m : Tree.member) -> m.Tree.var) inner.Tree.members);
  (* schedule values at i=130, j=5, k=37: ti=2, i-inner=2; tk=1, k-inner=5 *)
  let vars = function "i" -> 130 | "j" -> 5 | "k" -> 37 | _ -> 0 in
  check Alcotest.int "ti" 2 (eval_member (List.nth outer.Tree.members 0) ~stmt:"S1" ~vars);
  check Alcotest.int "ii" 2 (eval_member (List.nth inner.Tree.members 0) ~stmt:"S1" ~vars);
  check Alcotest.int "tk" 1 (eval_member (List.nth outer.Tree.members 2) ~stmt:"S1" ~vars);
  check Alcotest.int "kk" 5 (eval_member (List.nth inner.Tree.members 2) ~stmt:"S1" ~vars)

let test_tile_rejects_non_permutable () =
  let b =
    { Tree.members = [ Tree.member "i" [ ("S1", Aff.var "i") ] ]; permutable = false }
  in
  Alcotest.check_raises "not permutable"
    (Invalid_argument "Transform.tile: band is not permutable") (fun () ->
      ignore (Transform.tile b ~sizes:[ 4 ] ~names:[ "t" ]))

let test_strip_mine_matches_paper () =
  (* Fig. 6: strip-mining floor(k/32) by 8 yields floor(k/256) and
     floor(k/32) - 8*floor(k/256). *)
  let b = gemm_band () in
  let outer, _ = Transform.tile b ~sizes:[ 64; 64; 32 ] ~names:[ "ti"; "tj"; "tk" ] in
  let _, kband = Transform.split outer ~at:2 in
  let ko_band, l_band = Transform.strip_mine kband ~var:"tk" ~factor:8 ~outer:"ko" in
  let m_ko = List.hd ko_band.Tree.members in
  let m_l = List.hd l_band.Tree.members in
  (* floor(floor(k/32)/8) must have been simplified to floor(k/256) *)
  check Alcotest.string "outer is floor(k/256)" "floord(k, 256)"
    (Aff.to_string (List.assoc "S1" m_ko.Tree.exprs));
  let vars k = function "k" -> k | _ -> 0 in
  List.iter
    (fun k ->
      let ko = Aff.eval ~vars:(vars k) ~params:(fun _ -> 0) (List.assoc "S1" m_ko.Tree.exprs) in
      let l = Aff.eval ~vars:(vars k) ~params:(fun _ -> 0) (List.assoc "S1" m_l.Tree.exprs) in
      check Alcotest.int (Printf.sprintf "ko at k=%d" k) (k / 256) ko;
      check Alcotest.int (Printf.sprintf "l at k=%d" k) (k / 32 mod 8) l)
    [ 0; 31; 32; 255; 256; 1000 ]

let test_split_off () =
  let b = gemm_band () in
  let first, rest = Transform.split_off b ~var:"j" in
  check (Alcotest.list Alcotest.string) "isolated" [ "j" ]
    (List.map (fun (m : Tree.member) -> m.Tree.var) first.Tree.members);
  check (Alcotest.list Alcotest.string) "remaining" [ "i"; "k" ]
    (List.map (fun (m : Tree.member) -> m.Tree.var) rest.Tree.members)

let test_bind () =
  let b = gemm_band () in
  let outer, _ = Transform.tile b ~sizes:[ 64; 64; 32 ] ~names:[ "ti"; "tj"; "tk" ] in
  let bound = Transform.bind outer ~var:"ti" Tree.Bind_rid in
  let m = List.find (fun (m : Tree.member) -> m.Tree.var = "ti") bound.Tree.members in
  check Alcotest.bool "bound to Rid" true (m.Tree.bind = Tree.Bind_rid);
  (* binding the reduction tile loop must be rejected *)
  Alcotest.check_raises "k not bindable"
    (Invalid_argument "Transform.bind: only coincident members may be mesh-bound")
    (fun () -> ignore (Transform.bind outer ~var:"tk" Tree.Bind_cid))

let prop_tiling_is_bijective =
  (* For every point of a small GEMM domain, (outer, inner) schedule values
     determine the point uniquely and cover exactly the expected ranges. *)
  qtest "tiling is a bijection on instances"
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 1 10))
    (fun (m, n, k) ->
      let b = gemm_band () in
      let outer, inner = Transform.tile b ~sizes:[ 4; 4; 2 ] ~names:[ "ti"; "tj"; "tk" ] in
      let s = Stmt.gemm () in
      let pts =
        Bset.enumerate s.Stmt.domain ~params:[ ("M", m); ("N", n); ("K", k) ]
      in
      let images = Hashtbl.create 97 in
      List.iter
        (fun p ->
          let vars = function
            | "i" -> p.(0)
            | "j" -> p.(1)
            | "k" -> p.(2)
            | _ -> 0
          in
          let v =
            List.map (fun mm -> eval_member mm ~stmt:"S1" ~vars)
              (outer.Tree.members @ inner.Tree.members)
          in
          Hashtbl.replace images v ())
        pts;
      Hashtbl.length images = List.length pts)

let prop_strip_mine_reconstructs =
  qtest "strip-mining reconstructs the original value"
    QCheck.(pair (int_range 0 2000) (int_range 1 16))
    (fun (k, f) ->
      let b =
        {
          Tree.members = [ Tree.member ~coincident:false "tk" [ ("S1", Aff.fdiv (Aff.var "k") 32) ] ];
          permutable = true;
        }
      in
      let outer, inner = Transform.strip_mine b ~var:"tk" ~factor:f ~outer:"ko" in
      let vars = function "k" -> k | _ -> 0 in
      let ko = eval_member (List.hd outer.Tree.members) ~stmt:"S1" ~vars in
      let l = eval_member (List.hd inner.Tree.members) ~stmt:"S1" ~vars in
      (f * ko) + l = k / 32 && 0 <= l && l < f)

let tests =
  [
    ("GEMM statement", `Quick, test_gemm_stmt);
    ("batched GEMM statement", `Quick, test_batched_gemm_stmt);
    ("stmt iterator mismatch", `Quick, test_stmt_make_mismatch);
    ("predicate evaluation", `Quick, test_pred_eval);
    ("predicate to inequalities", `Quick, test_pred_to_ineqs);
    ("initial tree (Fig 2b)", `Quick, test_initial_tree);
    ("initial batched tree (Fig 3)", `Quick, test_initial_batched);
    ("validation rejects malformed trees", `Quick, test_validate_rejects);
    ("pretty printing", `Quick, test_pretty_print);
    ("tiling shape (Fig 4a)", `Quick, test_tile_shape);
    ("tiling requires permutability", `Quick, test_tile_rejects_non_permutable);
    ("strip-mining matches Fig 6", `Quick, test_strip_mine_matches_paper);
    ("split off a member", `Quick, test_split_off);
    ("mesh binding (Fig 4b)", `Quick, test_bind);
    prop_pred_ineqs_consistent;
    prop_tiling_is_bijective;
    prop_strip_mine_reconstructs;
  ]
