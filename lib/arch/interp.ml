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
                    counter =
                      Printf.sprintf "%s[%d]" reply.Cluster.name (rcopy land 1);
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

(* Lowering. The program is compiled once per run into closures that every
   CPE fiber shares; a closure runs on one CPE with that CPE's int slot
   environment. Slot 0 holds Rid and slot 1 Cid; a loop or let variable
   gets the slot one past the variables enclosing it. Parameters become
   constants, and SPM buffers and reply counters become positions in the
   CPE's handle arrays. A name that does not resolve lowers to a closure
   raising the [Invalid] text a lookup at execution would raise, so an op
   that never executes never fails. *)
type code = Cluster.cpe -> int array -> unit

type ctx = {
  cluster : Cluster.t;
  program : Sw_ast.Ast.program;
  buffers : string list;  (* the names of [program.spm_decls], in order *)
  user : (rid:int -> cid:int -> string -> (string * int) list -> unit) option;
  retry : retry_policy option;
  retries : int ref;
  mutable slots : int;  (* slot environment size needed so far *)
}

(* [vars] maps each variable in scope to its slot, innermost first. *)
type scope = { vars : (string * int) list; depth : int }

let position name names =
  let rec go i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 names

let var scope v =
  match List.assoc_opt v scope.vars with
  | Some i -> Aff.Slot i
  | None -> Aff.Dynamic (fun _ -> fail "unbound loop variable %s" v)

let param ctx = function
  | "Rid" -> Aff.Slot 0
  | "Cid" -> Aff.Slot 1
  | name -> (
      match List.assoc_opt name ctx.program.Sw_ast.Ast.params with
      | Some v -> Aff.Value v
      | None -> Aff.Dynamic (fun _ -> fail "unknown parameter %s" name))

let lower_aff ctx scope = Aff.lower ~vars:(var scope) ~params:(param ctx)
let lower_pred ctx scope = Pred.lower ~vars:(var scope) ~params:(param ctx)

(* An SPM operand lowers to its handle and copy index. The handle is
   looked up before the parity is evaluated, as a lookup by name did. *)
let lower_buf ctx scope (b : Comm.buf) =
  let handle =
    match position b.Comm.base ctx.buffers with
    | Some i -> fun (cpe : Cluster.cpe) -> cpe.Cluster.buffers.(i)
    | None -> fun _ -> fail "Spm: unknown buffer %s" b.Comm.base
  in
  match b.Comm.parity with
  | None -> fun cpe _ -> (handle cpe, 0)
  | Some p ->
      let f = lower_aff ctx scope p in
      fun cpe env ->
        let buf = handle cpe in
        (buf, Ints.fmod (f env) (Spm.copies buf))

let lower_reply ctx name =
  match position name ctx.program.Sw_ast.Ast.replies with
  | Some i -> fun (cpe : Cluster.cpe) -> cpe.Cluster.replies.(i)
  | None -> fun _ -> fail "Cluster: unknown reply counter %s" name

let lower_parity ctx scope = function
  | None -> fun _ -> 0
  | Some p ->
      let f = lower_aff ctx scope p in
      fun env -> Ints.fmod (f env) 2

let lower_op ctx scope (c : Comm.t) : code =
  let cluster = ctx.cluster in
  let aff = lower_aff ctx scope in
  match c with
  | Comm.Dma_get d | Comm.Dma_put d ->
      let prim =
        match c with Comm.Dma_get _ -> Cluster.dma_get | _ -> Cluster.dma_put
      in
      let rcopy = lower_parity ctx scope d.Comm.reply_parity in
      let buf = lower_buf ctx scope d.Comm.spm in
      let batch = Option.map aff d.Comm.batch in
      let row_lo = aff d.Comm.row_lo and col_lo = aff d.Comm.col_lo in
      let reply = lower_reply ctx d.Comm.reply in
      let { Comm.array = array_name; rows; cols; _ } = d in
      fun cpe env ->
        let rcopy = rcopy env in
        let buf, copy = buf cpe env in
        let batch = match batch with None -> None | Some f -> Some (f env) in
        prim cluster cpe ~array_name ~batch ~row_lo:(row_lo env)
          ~col_lo:(col_lo env) ~rows ~cols ~buf ~copy ~reply:(reply cpe) ~rcopy
  | Comm.Rma_bcast r ->
      let rcopy = lower_parity ctx scope r.Comm.reply_parity in
      let src = lower_buf ctx scope r.Comm.src
      and dst = lower_buf ctx scope r.Comm.dst in
      let root = aff r.Comm.root in
      let reply_s = lower_reply ctx r.Comm.reply_s
      and reply_r = lower_reply ctx r.Comm.reply_r in
      let { Comm.dir; rows; cols; _ } = r in
      fun cpe env ->
        let rcopy = rcopy env in
        Cluster.rma_bcast cluster cpe ~dir ~src:(src cpe env)
          ~dst:(dst cpe env) ~rows ~cols ~root:(root env)
          ~reply_s:(reply_s cpe) ~reply_r:(reply_r cpe) ~rcopy
  | Comm.Wait w ->
      let rcopy = lower_parity ctx scope w.reply_parity in
      let reply = lower_reply ctx w.reply in
      let retry = ctx.retry and retries = ctx.retries in
      fun cpe env ->
        let rcopy = rcopy env in
        wait_with_retry cluster cpe ~retry ~retries ~reply:(reply cpe) ~rcopy
  | Comm.Sync -> fun cpe _ -> Cluster.sync cluster cpe
  | Comm.Spm_map { target; rows; cols; fn } ->
      let buf = lower_buf ctx scope target in
      fun cpe env ->
        Cluster.spm_map cluster cpe ~buf:(buf cpe env) ~rows ~cols ~fn
  | Comm.Kernel k ->
      let c = lower_buf ctx scope k.Comm.c
      and a = lower_buf ctx scope k.Comm.a
      and b = lower_buf ctx scope k.Comm.b in
      let style = match k.Comm.style with Comm.Asm -> `Asm | Comm.Naive -> `Naive in
      let { Comm.m; n; k; alpha; accumulate; ta; tb; _ } = k in
      fun cpe env ->
        Cluster.kernel cluster cpe ~c:(c cpe env) ~a:(a cpe env) ~b:(b cpe env)
          ~m ~n ~k ~alpha ~accumulate ~ta ~tb ~style

let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* Bind a new variable in the next free slot. *)
let bind ctx scope var =
  let slot = scope.depth in
  ctx.slots <- max ctx.slots (slot + 1);
  (slot, { vars = (var, slot) :: scope.vars; depth = slot + 1 })

let rec lower_block ctx scope (stmts : Sw_ast.Ast.block) : code =
  match List.filter_map (lower_stmt ctx scope) stmts with
  | [] -> fun _ _ -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
      fun cpe env ->
        s1 cpe env;
        s2 cpe env
  | codes ->
      let codes = Array.of_list codes in
      fun cpe env ->
        for i = 0 to Array.length codes - 1 do
          codes.(i) cpe env
        done

and lower_stmt ctx scope (s : Sw_ast.Ast.stmt) : code option =
  match s with
  | Sw_ast.Ast.For { var; lbs; ubs; body } ->
      let lbs = List.map (lower_aff ctx scope) lbs
      and ubs = List.map (lower_aff ctx scope) ubs in
      let slot, inner = bind ctx scope var in
      let body = lower_block ctx inner body in
      Some
        (fun cpe env ->
          let lo = List.fold_left (fun acc f -> imax acc (f env)) min_int lbs
          and hi = List.fold_left (fun acc f -> imin acc (f env)) max_int ubs in
          if lo = min_int || hi = max_int then
            fail "loop %s has no finite bound" var;
          for x = lo to hi do
            env.(slot) <- x;
            body cpe env
          done)
  | Sw_ast.Ast.Let { var; value; body } ->
      let value = lower_aff ctx scope value in
      let slot, inner = bind ctx scope var in
      let body = lower_block ctx inner body in
      Some
        (fun cpe env ->
          env.(slot) <- value env;
          body cpe env)
  | Sw_ast.Ast.If { conds; body } ->
      let conds = List.map (lower_pred ctx scope) conds in
      let body = lower_block ctx scope body in
      let rec sat env = function [] -> true | p :: ps -> p env && sat env ps in
      Some (fun cpe env -> if sat env conds then body cpe env)
  | Sw_ast.Ast.Op c -> Some (lower_op ctx scope c)
  | Sw_ast.Ast.User { name; args } -> (
      match ctx.user with
      | Some f ->
          let args = List.map (fun (it, a) -> (it, lower_aff ctx scope a)) args in
          Some
            (fun (cpe : Cluster.cpe) env ->
              f ~rid:cpe.Cluster.rid ~cid:cpe.Cluster.cid name
                (List.map (fun (it, a) -> (it, a env)) args))
      | None ->
          Some (fun _ _ -> fail "User statement %s but no user callback" name))
  | Sw_ast.Ast.Comment _ -> None

let run ?trace ?faults ?watchdog ?retry ~config ~mem ?user
    (program : Sw_ast.Ast.program) =
  (* The simulator's single failure boundary: every typed error raised
     anywhere below, and a non-empty race list, come back as [Error]. *)
  match
    let cluster = Cluster.create ?trace ?faults ~config ~mem () in
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
    let ctx =
      {
        cluster;
        program;
        buffers =
          List.map
            (fun (d : Sw_ast.Ast.spm_decl) -> d.Sw_ast.Ast.buf_name)
            program.Sw_ast.Ast.spm_decls;
        user;
        retry;
        retries;
        slots = 2;
      }
    in
    let body =
      lower_block ctx { vars = []; depth = 2 } program.Sw_ast.Ast.body
    in
    Cluster.iter_cpes cluster (fun cpe ->
        Engine.spawn
          ~label:(Printf.sprintf "CPE(%d,%d)" cpe.Cluster.rid cpe.Cluster.cid)
          cluster.Cluster.engine
          (fun () ->
            let env = Array.make ctx.slots 0 in
            env.(0) <- cpe.Cluster.rid;
            env.(1) <- cpe.Cluster.cid;
            body cpe env));
    let finish = Engine.run cluster.Cluster.engine in
    (finish, Cluster.races cluster, !retries)
  with
  | exception Error.Sim_error e -> Error e
  | _, (_ :: _ as races), _ -> Error (Error.Race races)
  | finish, [], retries ->
      Ok { seconds = finish +. config.Config.mesh_startup_s; retries }
