open Sw_poly
open Sw_tree

type retry_policy = { timeout_s : float; backoff : float; max_retries : int }

(* First deadline shorter than the plan's re-delivery delay so a dropped
   reply that will be re-delivered is recovered by retrying rather than by
   luck; backoff doubles each round. *)
let default_retry = { timeout_s = 50e-6; backoff = 2.0; max_retries = 8 }

type result = { seconds : float; retries : int }

let fail fmt =
  Printf.ksprintf (fun s -> raise (Error.Sim_error (Error.Invalid s))) fmt

let gflops ~flops ~seconds = float_of_int flops /. seconds /. 1e9

(* Evaluate an affine expression in the per-CPE environment. *)
let eval_aff ~env ~params a =
  Aff.eval
    ~vars:(fun v ->
      match List.assoc_opt v !env with
      | Some x -> x
      | None -> fail "unbound loop variable %s" v)
    ~params a

let eval_buf ~env ~params spm (b : Comm.buf) =
  let copies = Spm.copies spm b.Comm.base in
  let copy =
    match b.Comm.parity with
    | None -> 0
    | Some p -> Sw_poly.Ints.fmod (eval_aff ~env ~params p) copies
  in
  (b.Comm.base, copy)

let eval_reply ~env ~params (name : string) (parity : Aff.t option) =
  match parity with
  | None -> (name, 0)
  | Some p -> (name, Sw_poly.Ints.fmod (eval_aff ~env ~params p) 2)

(* A timed-out wait is retried with exponential backoff; when the budget is
   exhausted the typed [Fault_exhausted] carries the CPE and counter so the
   caller can degrade (e.g. re-run on the MPE) or report precisely. *)
let wait_with_retry cluster (cpe : Cluster.cpe) ~retry ~retries ~reply ~rcopy =
  match retry with
  | None -> Cluster.wait_reply cluster cpe ~reply ~rcopy
  | Some p ->
      let rec attempt i timeout =
        if Cluster.wait_reply_deadline cluster cpe ~reply ~rcopy ~timeout then
          ()
        else if i >= p.max_retries then
          raise
            (Error.Sim_error
               (Error.Fault_exhausted
                  {
                    fiber =
                      Printf.sprintf "CPE(%d,%d)" cpe.Cluster.rid
                        cpe.Cluster.cid;
                    counter = Printf.sprintf "%s[%d]" reply (rcopy land 1);
                    retries = i;
                    sim_time = Engine.now cluster.Cluster.engine;
                  }))
        else begin
          incr retries;
          Sw_obs.Metrics.incr_a "sim.retries_total";
          attempt (i + 1) (timeout *. p.backoff)
        end
      in
      attempt 0 p.timeout_s

let exec_op cluster (cpe : Cluster.cpe) ~env ~params ~retry ~retries
    (c : Comm.t) =
  let eval = eval_aff ~env ~params in
  match c with
  | Comm.Dma_get d | Comm.Dma_put d ->
      let reply, rcopy = eval_reply ~env ~params d.Comm.reply d.Comm.reply_parity in
      let buf, copy = eval_buf ~env ~params cpe.Cluster.spm d.Comm.spm in
      let batch = Option.map eval d.Comm.batch in
      let f =
        match c with
        | Comm.Dma_get _ -> Cluster.dma_get
        | _ -> Cluster.dma_put
      in
      f cluster cpe ~array_name:d.Comm.array ~batch ~row_lo:(eval d.Comm.row_lo)
        ~col_lo:(eval d.Comm.col_lo) ~rows:d.Comm.rows ~cols:d.Comm.cols ~buf
        ~copy ~reply ~rcopy
  | Comm.Rma_bcast r ->
      let reply_s, rcopy = eval_reply ~env ~params r.Comm.reply_s r.Comm.reply_parity in
      let reply_r, _ = eval_reply ~env ~params r.Comm.reply_r r.Comm.reply_parity in
      Cluster.rma_bcast cluster cpe ~dir:r.Comm.dir
        ~src:(eval_buf ~env ~params cpe.Cluster.spm r.Comm.src)
        ~dst:(eval_buf ~env ~params cpe.Cluster.spm r.Comm.dst)
        ~rows:r.Comm.rows ~cols:r.Comm.cols ~root:(eval r.Comm.root) ~reply_s
        ~reply_r ~rcopy
  | Comm.Wait w ->
      let reply, rcopy = eval_reply ~env ~params w.reply w.reply_parity in
      wait_with_retry cluster cpe ~retry ~retries ~reply ~rcopy
  | Comm.Sync -> Cluster.sync cluster cpe
  | Comm.Spm_map s ->
      Cluster.spm_map cluster cpe
        ~buf:(eval_buf ~env ~params cpe.Cluster.spm s.target)
        ~rows:s.rows ~cols:s.cols ~fn:s.fn
  | Comm.Kernel k ->
      Cluster.kernel cluster cpe
        ~c:(eval_buf ~env ~params cpe.Cluster.spm k.Comm.c)
        ~a:(eval_buf ~env ~params cpe.Cluster.spm k.Comm.a)
        ~b:(eval_buf ~env ~params cpe.Cluster.spm k.Comm.b)
        ~m:k.Comm.m ~n:k.Comm.n ~k:k.Comm.k ~alpha:k.Comm.alpha
        ~accumulate:k.Comm.accumulate ~ta:k.Comm.ta ~tb:k.Comm.tb
        ~style:(match k.Comm.style with Comm.Asm -> `Asm | Comm.Naive -> `Naive)

let run_cpe cluster cpe ~params ~user ~retry ~retries
    (body : Sw_ast.Ast.block) =
  let env = ref [] in
  let rec block stmts = List.iter stmt stmts
  and stmt s =
    match s with
    | Sw_ast.Ast.For { var; lbs; ubs; body } ->
        let lo =
          List.fold_left
            (fun acc a -> max acc (eval_aff ~env ~params a))
            min_int lbs
        and hi =
          List.fold_left
            (fun acc a -> min acc (eval_aff ~env ~params a))
            max_int ubs
        in
        if lo = min_int || hi = max_int then
          fail "loop %s has no finite bound" var;
        for x = lo to hi do
          env := (var, x) :: !env;
          block body;
          env := List.tl !env
        done
    | Sw_ast.Ast.Let { var; value; body } ->
        env := (var, eval_aff ~env ~params value) :: !env;
        block body;
        env := List.tl !env
    | Sw_ast.Ast.If { conds; body } ->
        let sat =
          List.for_all
            (fun p ->
              Pred.eval
                ~vars:(fun v ->
                  match List.assoc_opt v !env with
                  | Some x -> x
                  | None -> fail "unbound loop variable %s" v)
                ~params p)
            conds
        in
        if sat then block body
    | Sw_ast.Ast.Op c -> exec_op cluster cpe ~env ~params ~retry ~retries c
    | Sw_ast.Ast.User { name; args } -> (
        match user with
        | Some f ->
            f ~rid:cpe.Cluster.rid ~cid:cpe.Cluster.cid name
              (List.map (fun (it, a) -> (it, eval_aff ~env ~params a)) args)
        | None -> fail "User statement %s but no user callback" name)
    | Sw_ast.Ast.Comment _ -> ()
  in
  block body

let run ?trace ?faults ?watchdog ?retry ~config ~functional ~mem ?user
    (program : Sw_ast.Ast.program) =
  (* The simulator's single failure boundary: every typed error raised
     anywhere below, and a non-empty race list, come back as [Error]. *)
  match
    let cluster = Cluster.create ?trace ?faults ~config ~functional ~mem () in
    (* Retry deadlines only matter when replies can be lost; without a fault
       plan every wait is satisfied normally, so disarm the deadline path and
       keep the fault-free simulation bit-identical to the plain model (no
       stale timeout events advancing the final clock). *)
    let retry = if faults = None then None else retry in
    (match watchdog with
    | Some w -> Engine.set_watchdog cluster.Cluster.engine w
    | None -> ());
    let retries = ref 0 in
    Cluster.alloc_buffers cluster program.Sw_ast.Ast.spm_decls;
    Cluster.alloc_replies cluster program.Sw_ast.Ast.replies;
    Cluster.iter_cpes cluster (fun cpe ->
        let params name =
          match name with
          | "Rid" -> cpe.Cluster.rid
          | "Cid" -> cpe.Cluster.cid
          | _ -> (
              match List.assoc_opt name program.Sw_ast.Ast.params with
              | Some v -> v
              | None -> fail "unknown parameter %s" name)
        in
        Engine.spawn
          ~label:(Printf.sprintf "CPE(%d,%d)" cpe.Cluster.rid cpe.Cluster.cid)
          cluster.Cluster.engine
          (fun () ->
            run_cpe cluster cpe ~params ~user ~retry ~retries
              program.Sw_ast.Ast.body));
    let finish = Engine.run cluster.Cluster.engine in
    (finish, Cluster.races cluster, !retries)
  with
  | exception Error.Sim_error e -> Error e
  | _, (_ :: _ as races), _ -> Error (Error.Race races)
  | finish, [], retries ->
      Ok { seconds = finish +. config.Config.mesh_startup_s; retries }
