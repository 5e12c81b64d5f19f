(* Pass manager: registration and ordering, option-driven toggles, the
   instrumented runner and observer, the inter-pass invariant checker, and
   the compilation plan cache. *)

open Sw_core
open Sw_arch

let compile_exn = Helpers.compile_exn

let config = Config.sw26010pro
let spec512 = Spec.make ~m:512 ~n:512 ~k:512 ()

let stat_of stats name =
  match List.find_opt (fun s -> s.Pass.pass = name) stats with
  | Some s -> s
  | None -> Alcotest.failf "no statistic recorded for pass %s" name

(* ------------------------------------------------------------------ *)
(* Registration and ordering                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_order () =
  let names = List.map (fun p -> p.Pass.name) (Pass.registered ()) in
  Alcotest.(check (list string))
    "registry matches the canonical pipeline" Pass_registry.names names;
  Alcotest.(check (list string))
    "paper order"
    [
      "tile"; "mesh_bind"; "strip_mine"; "dma_insert"; "rma_broadcast";
      "pipeline_hiding"; "fusion"; "astgen";
    ]
    names

let test_find () =
  (match Pass.find "dma_insert" with
  | Some p ->
      Alcotest.(check string) "name" "dma_insert" p.Pass.name;
      Alcotest.(check bool) "required" true p.Pass.required
  | None -> Alcotest.fail "dma_insert not registered");
  Alcotest.(check bool) "unknown pass" true (Pass.find "nonesuch" = None)

let test_duplicate_register () =
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Pass.register: duplicate pass tile") (fun () ->
      Pass.register (List.hd (Pass.registered ())))

let test_required_flags () =
  let required =
    List.filter_map
      (fun p -> if p.Pass.required then Some p.Pass.name else None)
      (Pass.registered ())
  in
  Alcotest.(check (list string))
    "required passes" [ "tile"; "mesh_bind"; "dma_insert"; "astgen" ] required

(* ------------------------------------------------------------------ *)
(* Option-driven toggles (the breakdown study, Fig. 13)                 *)
(* ------------------------------------------------------------------ *)

let test_breakdown_toggles () =
  List.iter
    (fun (name, options) ->
      let compiled = compile_exn ~options ~config spec512 in
      let ran pass = (stat_of compiled.Compile.pass_stats pass).Pass.ran in
      let check what = Alcotest.(check bool) (name ^ ": " ^ what) in
      check "tile" true (ran "tile");
      check "mesh_bind" true (ran "mesh_bind");
      check "dma_insert" true (ran "dma_insert");
      check "astgen" true (ran "astgen");
      check "strip_mine iff rma" options.Options.use_rma (ran "strip_mine");
      check "rma_broadcast iff rma" options.Options.use_rma (ran "rma_broadcast");
      check "pipeline_hiding iff hiding" options.Options.hiding
        (ran "pipeline_hiding");
      check "fusion off for plain spec" false (ran "fusion"))
    Options.breakdown

let test_fusion_toggle () =
  let spec = Spec.make ~fusion:(Spec.Epilogue "tanh") ~m:512 ~n:512 ~k:512 () in
  let compiled = compile_exn ~config spec in
  Alcotest.(check bool)
    "fusion pass ran" true
    (stat_of compiled.Compile.pass_stats "fusion").Pass.ran;
  let has_act =
    List.exists
      (fun e -> e.Sw_tree.Tree.ext_name = "actC")
      (Sw_tree.Tree.exts compiled.Compile.tree)
  in
  Alcotest.(check bool) "epilogue extension present" true has_act

let test_stats_sane () =
  let compiled = compile_exn ~config spec512 in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Pass.pass ^ ": time >= 0") true (s.Pass.seconds >= 0.0);
      if s.Pass.ran && s.Pass.pass <> "astgen" && s.Pass.pass <> "fusion" then
        Alcotest.(check bool)
          (s.Pass.pass ^ ": tree grows")
          true
          (s.Pass.nodes_after > s.Pass.nodes_before))
    compiled.Compile.pass_stats;
  Alcotest.(check bool) "report renders every pass" true
    (List.for_all
       (fun p ->
         let re = p.Pass.name in
         let report = Pass.report compiled.Compile.pass_stats in
         (* plain substring search *)
         let n = String.length report and m = String.length re in
         let rec find i = i + m <= n && (String.sub report i m = re || find (i + 1)) in
         find 0)
       (Pass.registered ()))

(* ------------------------------------------------------------------ *)
(* Observer hook (--dump-after)                                         *)
(* ------------------------------------------------------------------ *)

let test_observer_order_and_snapshots () =
  let seen = ref [] in
  let observer (p : Pass.t) (st : Pass.state) =
    seen := p.Pass.name :: !seen;
    (* every tree-transformation pass leaves a valid snapshot behind *)
    match st.Pass.tree with
    | Some t -> (
        match Sw_tree.Tree.validate t with
        | Ok () -> ()
        | Error e -> Alcotest.failf "after %s: invalid snapshot: %s" p.Pass.name e)
    | None -> Alcotest.failf "after %s: no snapshot" p.Pass.name
  in
  let compiled = compile_exn ~observer ~config spec512 in
  let executed =
    List.filter_map
      (fun s -> if s.Pass.ran then Some s.Pass.pass else None)
      compiled.Compile.pass_stats
  in
  Alcotest.(check (list string))
    "observer fires once per executed pass, in order" executed
    (List.rev !seen)

let test_debug_mode_all_variants () =
  (* the inter-pass invariant checker accepts every intermediate tree of
     every breakdown variant and both fusion patterns *)
  List.iter
    (fun (_, options) ->
      ignore (compile_exn ~options ~debug:true ~config spec512))
    Options.breakdown;
  List.iter
    (fun fusion ->
      let spec = Spec.make ~fusion ~m:512 ~n:512 ~k:512 () in
      ignore (compile_exn ~debug:true ~config spec))
    [ Spec.Prologue "quant"; Spec.Epilogue "tanh" ]

(* ------------------------------------------------------------------ *)
(* Inter-pass invariants                                                *)
(* ------------------------------------------------------------------ *)

let buffers_of (compiled : Compile.t) =
  List.map
    (fun (d : Sw_ast.Ast.spm_decl) ->
      {
        Sw_tree.Invariant.buf = d.Sw_ast.Ast.buf_name;
        rows = d.Sw_ast.Ast.rows;
        cols = d.Sw_ast.Ast.cols;
        copies = d.Sw_ast.Ast.copies;
      })
    compiled.Compile.program.Sw_ast.Ast.spm_decls

let test_invariant_accepts_final_tree () =
  let compiled = compile_exn ~config spec512 in
  match
    Sw_tree.Invariant.check ~buffers:(buffers_of compiled)
      ~replies:compiled.Compile.program.Sw_ast.Ast.replies
      ~spm_capacity:config.Config.spm_bytes compiled.Compile.tree
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final tree rejected: %s" e

let test_invariant_missing_buffer () =
  let compiled = compile_exn ~config spec512 in
  match Sw_tree.Invariant.check ~buffers:[] compiled.Compile.tree with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undeclared buffers accepted"

let test_invariant_spm_overflow () =
  let compiled = compile_exn ~config spec512 in
  match
    Sw_tree.Invariant.check ~buffers:(buffers_of compiled)
      ~replies:compiled.Compile.program.Sw_ast.Ast.replies ~spm_capacity:64
      compiled.Compile.tree
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "SPM overflow accepted"

let test_invariant_permutability () =
  let stmt = Sw_tree.Stmt.gemm () in
  let open Sw_poly in
  let bad =
    Sw_tree.Tree.domain [ stmt ]
      (Sw_tree.Tree.band ~permutable:false
         [
           Sw_tree.Tree.member "i" [ ("S1", Aff.var "i") ];
           Sw_tree.Tree.member "j" [ ("S1", Aff.var "j") ];
         ]
         Sw_tree.Tree.leaf)
  in
  match Sw_tree.Invariant.check bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-permutable multi-member band accepted"

(* ------------------------------------------------------------------ *)
(* Plan cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_hit () =
  let cache = Plan_cache.create () in
  let c1 = compile_exn ~cache ~config spec512 in
  let c2 = compile_exn ~cache ~config spec512 in
  Alcotest.(check bool) "hit returns the same plan" true (c1 == c2);
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Plan_cache.misses;
  Alcotest.(check int) "one hit" 1 st.Plan_cache.hits;
  Alcotest.(check int) "one entry" 1 st.Plan_cache.entries

let test_cache_invalidation () =
  let cache = Plan_cache.create () in
  let c1 = compile_exn ~cache ~config spec512 in
  let c2 = compile_exn ~cache ~options:Options.baseline ~config spec512 in
  let c3 =
    compile_exn ~cache ~config (Spec.make ~m:1024 ~n:512 ~k:512 ())
  in
  Alcotest.(check bool) "options change misses" true (c1 != c2);
  Alcotest.(check bool) "spec change misses" true (c1 != c3);
  let st = Plan_cache.stats cache in
  Alcotest.(check int) "three misses" 3 st.Plan_cache.misses;
  Alcotest.(check int) "no hits" 0 st.Plan_cache.hits;
  (* the key covers the machine model too *)
  let k1 = Plan_cache.key ~spec:spec512 ~options:Options.all_on ~config in
  let k2 =
    Plan_cache.key ~spec:spec512 ~options:Options.all_on
      ~config:(Config.tiny ())
  in
  Alcotest.(check bool) "config change changes the key" true (k1 <> k2);
  Alcotest.(check string) "key is deterministic" k1
    (Plan_cache.key ~spec:spec512 ~options:Options.all_on ~config)

let test_cache_eviction () =
  let cache = Plan_cache.create ~capacity:2 () in
  let add k v = ignore (Plan_cache.find_or_add cache ~key:k (fun () -> v)) in
  add "a" 1;
  add "b" 2;
  add "c" 3;
  Alcotest.(check bool) "oldest evicted" false (Plan_cache.mem cache "a");
  Alcotest.(check bool) "newest kept" true (Plan_cache.mem cache "c");
  Alcotest.(check int) "bounded" 2 (Plan_cache.stats cache).Plan_cache.entries;
  Alcotest.(check int) "evicted key recomputes" 4
    (Plan_cache.find_or_add cache ~key:"a" (fun () -> 4))

(* ------------------------------------------------------------------ *)
(* Property: the validator accepts every tree any enabled-pass subset    *)
(* produces on random small specs                                       *)
(* ------------------------------------------------------------------ *)

let arb_pipeline_input =
  let gen =
    let open QCheck.Gen in
    let* m = int_range 1 96 in
    let* n = int_range 1 96 in
    let* k = int_range 1 96 in
    let* batch = opt (int_range 2 4) in
    let* ta = bool and* tb = bool in
    let* fusion =
      oneofl [ Spec.No_fusion; Spec.Prologue "relu"; Spec.Epilogue "tanh" ]
    in
    let* use_asm = bool and* use_rma = bool and* hiding = bool in
    return
      ( Spec.make ?batch ~ta ~tb ~fusion ~m ~n ~k (),
        { Options.use_asm; use_rma; hiding = hiding && use_rma } )
  in
  let print (spec, options) =
    Printf.sprintf "%s [%s]" (Spec.to_string spec) (Options.name options)
  in
  QCheck.make ~print gen

let prop_debug_compile (spec, options) =
  (* debug:true runs Invariant.check after every pass; any rejected
     intermediate tree aborts the compilation *)
  let compiled =
    compile_exn ~options ~debug:true ~config:(Config.tiny ()) spec
  in
  List.for_all
    (fun p ->
      not (p.Pass.required || p.Pass.relevant (Pass.init ~spec ~options
             ~config:(Config.tiny ()) ~tiles:compiled.Compile.tiles))
      || (stat_of compiled.Compile.pass_stats p.Pass.name).Pass.ran)
    (Pass.registered ())

let tests =
  [
    Alcotest.test_case "registry order" `Quick test_registry_order;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "duplicate registration" `Quick test_duplicate_register;
    Alcotest.test_case "required flags" `Quick test_required_flags;
    Alcotest.test_case "breakdown toggles" `Quick test_breakdown_toggles;
    Alcotest.test_case "fusion toggle" `Quick test_fusion_toggle;
    Alcotest.test_case "stats sane" `Quick test_stats_sane;
    Alcotest.test_case "observer order + snapshots" `Quick
      test_observer_order_and_snapshots;
    Alcotest.test_case "debug mode, all variants" `Quick
      test_debug_mode_all_variants;
    Alcotest.test_case "invariants accept final tree" `Quick
      test_invariant_accepts_final_tree;
    Alcotest.test_case "invariants: missing buffer" `Quick
      test_invariant_missing_buffer;
    Alcotest.test_case "invariants: SPM overflow" `Quick
      test_invariant_spm_overflow;
    Alcotest.test_case "invariants: permutability" `Quick
      test_invariant_permutability;
    Alcotest.test_case "cache hit" `Quick test_cache_hit;
    Alcotest.test_case "cache invalidation" `Quick test_cache_invalidation;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Helpers.qtest ~count:100 "random specs x pass subsets validate"
      arb_pipeline_input prop_debug_compile;
  ]
