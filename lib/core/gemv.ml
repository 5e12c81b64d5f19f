open Sw_poly
open Sw_tree

type spec = { vm : int; vn : int; valpha : float; vbeta : float }

let make_spec ?(alpha = 1.0) ?(beta = 1.0) ~m ~n () =
  if m <= 0 || n <= 0 then invalid_arg "Gemv.make_spec: non-positive size";
  { vm = m; vn = n; valpha = alpha; vbeta = beta }

type compiled = {
  spec : spec;
  original : spec;
  config : Sw_arch.Config.t;
  tree : Tree.t;
  program : Sw_ast.Ast.program;
}

exception Gemv_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Gemv_error s)) fmt

let v = Aff.var
let c = Aff.const
let ( +: ) = Aff.add
let ( *: ) = Aff.mul

(* The x panel matches the GEMM k-panel depth. *)
let panel (config : Sw_arch.Config.t) =
  min config.Sw_arch.Config.mesh_rows config.Sw_arch.Config.mesh_cols
  * config.Sw_arch.Config.mk_k

(* Rows handled per full mesh sweep: tile height x rows x cols (cyclic over
   the linearized CPE index). *)
let row_sweep (config : Sw_arch.Config.t) =
  config.Sw_arch.Config.mk_m
  * config.Sw_arch.Config.mesh_rows
  * config.Sw_arch.Config.mesh_cols

let gemv_stmt spec =
  let domain = Bset.universe ~params:[] ~dims:[ "i"; "k" ] in
  let domain = Bset.constrain_range domain "i" ~lo:(c 0) ~hi:(c spec.vm) in
  let domain = Bset.constrain_range domain "k" ~lo:(c 0) ~hi:(c spec.vn) in
  Stmt.make ~name:"S1" ~iters:[ "i"; "k" ] ~domain
    ~accesses:
      [
        Access.write "y" [ v "i"; c 0 ];
        Access.read "y" [ v "i"; c 0 ];
        Access.read "A" [ v "i"; v "k" ];
        Access.read "x" [ v "k"; c 0 ];
      ]

let compile ~config original =
  let tm = config.Sw_arch.Config.mk_m in
  let rows = config.Sw_arch.Config.mesh_rows in
  let cols = config.Sw_arch.Config.mesh_cols in
  let np = panel config in
  let spec =
    {
      original with
      vm = Sw_blas.Matrix.round_up original.vm ~multiple:(row_sweep config);
      vn = Sw_blas.Matrix.round_up original.vn ~multiple:np;
    }
  in
  let stmt = gemv_stmt spec in
  let initial = Tree.initial [ stmt ] in
  let band0 =
    match initial with
    | Tree.Domain (_, Tree.Band (b, Tree.Leaf)) -> b
    | _ -> assert false
  in
  (* rows: tile by tm, then by mesh cols and mesh rows; bind to Rid/Cid *)
  let iband, kband = Transform.split_off band0 ~var:"i" in
  let ti_band, point_i = Transform.tile iband ~sizes:[ tm ] ~names:[ "ti" ] in
  let t1_band, ci_band =
    Transform.strip_mine ti_band ~var:"ti" ~factor:cols ~outer:"t1"
  in
  let bi_band, ri_band =
    Transform.strip_mine t1_band ~var:"t1" ~factor:rows ~outer:"bi"
  in
  let ri_band = Transform.bind ri_band ~var:"t1" Tree.Bind_rid in
  let ci_band = Transform.bind ci_band ~var:"ti" Tree.Bind_cid in
  (* x: panels of np *)
  let ko_band, point_k = Transform.tile kband ~sizes:[ np ] ~names:[ "ko" ] in
  (* row offset of this CPE's tile: tm * (rows*cols*bi + cols*t1 + ti) *)
  let row_lo =
    tm *: (((rows * cols) *: v "bi") +: (cols *: v "t1") +: v "ti")
  in
  ignore point_i;
  ignore point_k;
  let dma ~array ~spm ~row_lo ~col_lo ~rows ~cols ~reply ~put =
    let d =
      {
        Comm.array;
        spm = Comm.buf spm;
        batch = None;
        row_lo;
        col_lo;
        rows;
        cols;
        reply;
        reply_parity = None;
      }
    in
    if put then Comm.Dma_put d else Comm.Dma_get d
  in
  let wait reply = Comm.Wait { reply; reply_parity = None } in
  let rma ~dir ~src ~dst ~root ~rs ~rr =
    Comm.Rma_bcast
      {
        Comm.dir;
        src = Comm.buf src;
        dst = Comm.buf dst;
        rows = np;
        cols = 1;
        root = c root;
        reply_s = rs;
        reply_r = rr;
        reply_parity = None;
      }
  in
  let ext name comm = { Tree.ext_name = name; comm } in
  let f ?preds stmts = Tree.filter ?preds stmts in
  let fleaf name = (f [ name ], Tree.leaf) in
  let on_origin =
    [ Pred.eq (Aff.param "Rid") (c 0); Pred.eq (Aff.param "Cid") (c 0) ]
  in
  let kernel =
    Comm.Kernel
      {
        Comm.c = Comm.buf "ldm_y";
        a = Comm.buf "ldm_Av";
        b = Comm.buf "ldm_x2";
        m = tm;
        n = 1;
        k = np;
        alpha = spec.valpha;
        accumulate = true;
        ta = false;
        tb = false;
        style = Comm.Asm;
      }
  in
  let k_chain =
    Tree.Band
      ( ko_band,
        Tree.extension
          [
            (* the x panel: fetched once by CPE (0,0), then all-broadcast
               as a row broadcast followed by column broadcasts (Fig. 8c) *)
            ext "getX"
              (dma ~array:"x" ~spm:"ldm_x0" ~row_lo:(np *: v "ko")
                 ~col_lo:(c 0) ~rows:np ~cols:1 ~reply:"rX" ~put:false);
            ext "wX" (wait "rX");
            ext "syncR" Comm.Sync;
            ext "rbX"
              (rma ~dir:`Row ~src:"ldm_x0" ~dst:"ldm_x1" ~root:0 ~rs:"rXs"
                 ~rr:"rXr");
            ext "w_rbXs" (wait "rXs");
            ext "w_rbXr" (wait "rXr");
            ext "syncC" Comm.Sync;
            ext "cbX"
              (rma ~dir:`Col ~src:"ldm_x1" ~dst:"ldm_x2" ~root:0 ~rs:"rXs2"
                 ~rr:"rXr2");
            ext "w_cbXs" (wait "rXs2");
            ext "w_cbXr" (wait "rXr2");
            ext "getAv"
              (dma ~array:"A" ~spm:"ldm_Av" ~row_lo ~col_lo:(np *: v "ko")
                 ~rows:tm ~cols:np ~reply:"rAv" ~put:false);
            ext "wAv" (wait "rAv");
          ]
          (Tree.sequence
             [
               (f ~preds:on_origin [ "getX" ], Tree.leaf);
               (f ~preds:on_origin [ "wX" ], Tree.leaf);
               fleaf "syncR";
               fleaf "rbX";
               fleaf "w_rbXs";
               fleaf "w_rbXr";
               fleaf "syncC";
               fleaf "cbX";
               fleaf "w_cbXs";
               fleaf "w_cbXr";
               fleaf "getAv";
               fleaf "wAv";
               ( f [ "S1" ],
                 Tree.mark "gemv_kernel" (Tree.Band (point_k, Tree.leaf)) );
             ]) )
  in
  let y_exts =
    [
      ext "getY"
        (dma ~array:"y" ~spm:"ldm_y" ~row_lo ~col_lo:(c 0) ~rows:tm ~cols:1
           ~reply:"rYg" ~put:false);
      ext "wYg" (wait "rYg");
    ]
    @ (if spec.vbeta <> 1.0 then
         [
           ext "scaleY"
             (Comm.Spm_map
                {
                  target = Comm.buf "ldm_y";
                  rows = tm;
                  cols = 1;
                  fn = Printf.sprintf "scale:%.17g" spec.vbeta;
                });
         ]
       else [])
    @ [
        ext "putY"
          (dma ~array:"y" ~spm:"ldm_y" ~row_lo ~col_lo:(c 0) ~rows:tm ~cols:1
             ~reply:"rYp" ~put:true);
        ext "wYp" (wait "rYp");
      ]
  in
  let block =
    Tree.extension y_exts
      (Tree.sequence
         ([ fleaf "getY"; fleaf "wYg" ]
         @ (if spec.vbeta <> 1.0 then [ fleaf "scaleY" ] else [])
         @ [ (f [ "S1" ], k_chain); fleaf "putY"; fleaf "wYp" ]))
  in
  let tree =
    Tree.domain [ stmt ]
      (Tree.Band
         (bi_band, Tree.Band (ri_band, Tree.Band (ci_band, block))))
  in
  (match Tree.validate tree with
  | Ok () -> ()
  | Error e -> fail "invalid GEMV tree: %s" e);
  let marks = function
    | "gemv_kernel" -> Some [ Sw_ast.Ast.Op kernel ]
    | _ -> None
  in
  let body =
    try
      Sw_ast.Codegen.generate ~marks
        ~mesh:(config.Sw_arch.Config.mesh_rows, config.Sw_arch.Config.mesh_cols)
        tree
    with Sw_ast.Codegen.Codegen_error e -> fail "codegen: %s" e
  in
  let program =
    {
      Sw_ast.Ast.prog_name = "swgemv";
      params = [ ("M", spec.vm); ("N", spec.vn) ];
      arrays =
        [
          { Sw_ast.Ast.array_name = "A"; dims = [ spec.vm; spec.vn ] };
          { Sw_ast.Ast.array_name = "x"; dims = [ spec.vn; 1 ] };
          { Sw_ast.Ast.array_name = "y"; dims = [ spec.vm; 1 ] };
        ];
      spm_decls =
        [
          { Sw_ast.Ast.buf_name = "ldm_y"; rows = tm; cols = 1; copies = 1 };
          { Sw_ast.Ast.buf_name = "ldm_Av"; rows = tm; cols = np; copies = 1 };
          { Sw_ast.Ast.buf_name = "ldm_x0"; rows = np; cols = 1; copies = 1 };
          { Sw_ast.Ast.buf_name = "ldm_x1"; rows = np; cols = 1; copies = 1 };
          { Sw_ast.Ast.buf_name = "ldm_x2"; rows = np; cols = 1; copies = 1 };
        ];
      replies =
        [ "rX"; "rXs"; "rXr"; "rXs2"; "rXr2"; "rAv"; "rYg"; "rYp" ];
      body;
    }
  in
  { spec; original; config; tree; program }

let flops t = 2 * t.spec.vm * t.spec.vn

let verify ?(seed = 11) t =
  let open Sw_blas in
  let a = Matrix.random ~rows:t.spec.vm ~cols:t.spec.vn ~seed in
  let x = Matrix.random ~rows:t.spec.vn ~cols:1 ~seed:(seed + 1) in
  let y = Matrix.random ~rows:t.spec.vm ~cols:1 ~seed:(seed + 2) in
  match
    Runner.simulate ~config:t.config t.program
      ~operands:[ ("A", [| a |]); ("x", [| x |]); ("y", [| y |]) ]
  with
  | Error e -> Error (Sw_arch.Error.to_string e)
  | Ok (_, mem) -> (
      (* y := alpha A x + beta y is the GEMM (vm x 1 x vn) *)
      let gemm =
        Spec.make ~alpha:t.spec.valpha ~beta:t.spec.vbeta ~m:t.spec.vm ~n:1
          ~k:t.spec.vn ()
      in
      let yref = Runner.reference gemm ~a:[| a |] ~b:[| x |] ~c:[| y |] in
      match
        Runner.first_mismatch yref (Runner.read mem "y" ~rows:t.spec.vm ~cols:1)
      with
      | None -> Ok ()
      | Some (_, diff, scale) ->
          Error (Printf.sprintf "max |difference| %.3e (scale %.3e)" diff scale))

let measure t =
  match Runner.simulate ~config:t.config t.program ~operands:[] with
  | Error e -> raise (Gemv_error (Sw_arch.Error.to_string e))
  | Ok (r, _) ->
      let seconds = r.Sw_arch.Interp.seconds in
      {
        Runner.seconds;
        gflops = Sw_arch.Interp.gflops ~flops:(flops t) ~seconds;
        exact = true;
      }
