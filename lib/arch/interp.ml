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

(* Lowering: see interp.mli. An op runs on one CPE and its slots, moves
   the CPE's program counter and returns [true] when it suspended the
   fiber; a loop keeps its upper bound in the slot after its variable. A
   name that does not resolve lowers to position -1 (or no handle). A
   CPE's state is its slots: [Rid], [Cid], its program counter ([pc]), a
   wait's attempt count ([attempt]), then the variables. Whether its fiber
   is running, delayed or parked (with or without a deadline) is the
   engine's. *)
let pc = 2
let attempt = 3
type ctx = {
  program : Sw_ast.Ast.program;
  mem : Mem.t;
  cluster : Cluster.t;
  user : (rid:int -> cid:int -> string -> (string * int) list -> unit) option;
  retry : retry_policy option;
  mutable retries : int;
  mutable ops : (Cluster.cpe -> int array -> bool) array;
  mutable pc : int;  (* ops emitted so far; the rest is spare room *)
  mutable slots : int;  (* slot environment size needed so far *)
}

(* [vars] maps each variable in scope to its slot, innermost first. *)
type scope = { vars : (string * int) list; depth : int }

let position p l = Option.value (List.find_index p l) ~default:(-1)

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

(* An SPM operand: its handle's position, checked before the copy index
   is evaluated, as a lookup by name did. The copy index is the parity
   modulo the buffer's declared copies, lowered as one expression. *)
type buf = { index : int; name : string; copy : int array -> int }

let lower_buf ctx scope (b : Comm.buf) =
  let decls = ctx.program.Sw_ast.Ast.spm_decls in
  let index =
    position (fun (d : Sw_ast.Ast.spm_decl) -> d.Sw_ast.Ast.buf_name = b.Comm.base) decls
  in
  {
    index;
    name = b.Comm.base;
    copy =
      (match b.Comm.parity with
      | Some p when index >= 0 ->
          lower_aff ctx scope (Aff.Mod (p, (List.nth decls index).Sw_ast.Ast.copies))
      | _ -> fun _ -> 0);
  }

let copy_of b env =
  if b.index < 0 then fail "Spm: unknown buffer %s" b.name;
  b.copy env

let lower_reply ctx name =
  let i = position (String.equal name) ctx.program.Sw_ast.Ast.replies in
  fun (cpe : Cluster.cpe) ->
    if i < 0 then fail "Cluster: unknown reply counter %s" name;
    cpe.Cluster.replies.(i)

let lower_parity ctx scope = function
  | None -> fun _ -> 0
  | Some p -> lower_aff ctx scope (Aff.Mod (p, 2))

(* Moving on: to op [i] or to the next op. An op that suspends its fiber
   moves on first, so the fiber resumes at the op after it. *)
let jump env i =
  env.(pc) <- i;
  false

let next env = jump env (env.(pc) + 1)

(* A wait lowers to its start and its end, each running at most to one
   suspension. Under the retry policy the end either moves on or, when
   the attempt timed out, jumps back to the start to retry with
   exponential backoff; slot [attempt] counts the attempts of the wait under
   way (a CPE waits on one reply at a time). When the budget is exhausted the
   typed [Fault_exhausted] carries the CPE and counter so the caller can
   degrade (e.g. re-run on the MPE) or report precisely. *)
let lower_wait ctx scope reply parity =
  let cl = ctx.cluster in
  let rcopy = lower_parity ctx scope parity and reply = lower_reply ctx reply in
  [
    (fun cpe env ->
      let rcopy = rcopy env in
      let reply = reply cpe in
      ignore (next env);
      match ctx.retry with
      | None -> Cluster.wait_reply cl cpe ~reply ~rcopy
      | Some p ->
          let timeout = ref p.timeout_s in
          for _ = 1 to env.(attempt) do
            timeout := !timeout *. p.backoff
          done;
          Cluster.wait_reply ~timeout:!timeout cl cpe ~reply ~rcopy);
    (fun cpe env ->
      let reply = reply cpe in
      Cluster.wait_done cl cpe ~reply;
      match ctx.retry with
      | Some p when Engine.timed_out (Cluster.engine ctx.cluster) cpe.Cluster.fid ->
          if env.(attempt) >= p.max_retries then
            raise
              (Error.Sim_error
                 (Error.Fault_exhausted
                    {
                      fiber =
                        Printf.sprintf "CPE(%d,%d)" cpe.Cluster.rid cpe.Cluster.cid;
                      counter =
                        Printf.sprintf "%s[%d]" reply.Cluster.name (rcopy env land 1);
                      retries = env.(attempt);
                      sim_time = Engine.now (Cluster.engine ctx.cluster);
                    }));
          ctx.retries <- ctx.retries + 1;
          Sw_obs.Metrics.incr_a "sim.retries_total";
          env.(attempt) <- env.(attempt) + 1;
          jump env (env.(pc) - 1)
      | _ ->
          env.(attempt) <- 0;
          next env);
  ]

let lower_op ctx scope (c : Comm.t) =
  let aff = lower_aff ctx scope and buf = lower_buf ctx scope in
  let cl = ctx.cluster in
  match c with
  | Comm.Dma_get d | Comm.Dma_put d ->
      let put = match c with Comm.Dma_put _ -> true | _ -> false in
      let rcopy = lower_parity ctx scope d.Comm.reply_parity in
      let spm = buf d.Comm.spm and reply = lower_reply ctx d.Comm.reply in
      let array = Mem.handle ctx.mem d.Comm.array in
      let batch = Option.map aff d.Comm.batch in
      let row_lo = aff d.Comm.row_lo and col_lo = aff d.Comm.col_lo in
      [
        (fun cpe env ->
          let rcopy = rcopy env in
          let copy = copy_of spm env in
          let batch_i = match batch with None -> 0 | Some f -> f env in
          let row_lo = row_lo env and col_lo = col_lo env in
          let reply = reply cpe in
          match array with
          | None -> fail "Mem: unknown array %s" d.Comm.array
          | Some array ->
              Cluster.dma cl cpe d ~put ~array ~batch:batch_i ~row_lo ~col_lo
                ~buf:spm.index ~copy ~reply ~rcopy;
              next env);
      ]
  | Comm.Rma_bcast r ->
      let rcopy = lower_parity ctx scope r.Comm.reply_parity in
      let src = buf r.Comm.src and dst = buf r.Comm.dst in
      let root = aff r.Comm.root in
      let reply_s = lower_reply ctx r.Comm.reply_s
      and reply_r = lower_reply ctx r.Comm.reply_r in
      [
        (fun cpe env ->
          let rcopy = rcopy env in
          let src_copy = copy_of src env in
          let dst_copy = copy_of dst env in
          Cluster.rma_bcast cl cpe r ~src:src.index ~src_copy ~dst:dst.index
            ~dst_copy ~root:(root env) ~reply_s:(reply_s cpe)
            ~reply_r:(reply_r cpe) ~rcopy;
          next env);
      ]
  | Comm.Wait w -> lower_wait ctx scope w.reply w.reply_parity
  | Comm.Sync ->
      (* the barrier, then its latency, then the trace of the whole sync *)
      [
        (fun cpe env -> (not (next env)) && Cluster.sync_arrive cl cpe);
        (fun cpe env -> (not (next env)) && Cluster.sync_settle cl cpe);
        (fun cpe env ->
          Cluster.sync_done cl cpe;
          next env);
      ]
  | Comm.Spm_map { target; rows; cols; fn } ->
      let target = buf target and seconds = Cluster.spm_map_seconds cl ~rows ~cols in
      [
        (fun cpe env ->
          let copy = copy_of target env in
          ignore (next env);
          Cluster.spm_map cl cpe ~seconds ~buf:target.index ~copy ~rows ~cols ~fn);
      ]
  | Comm.Kernel k ->
      let c = buf k.Comm.c and a = buf k.Comm.a and b = buf k.Comm.b in
      let seconds = Cluster.kernel_seconds cl k in
      [
        (fun cpe env ->
          let c_copy = copy_of c env in
          let a_copy = copy_of a env in
          let b_copy = copy_of b env in
          ignore (next env);
          Cluster.kernel cl cpe k ~seconds ~c:c.index ~c_copy ~a:a.index ~a_copy
            ~b:b.index ~b_copy);
      ]

let emit ctx op =
  if ctx.pc = Array.length ctx.ops then
    ctx.ops <- Array.append ctx.ops (Array.make (ctx.pc + 8) op);
  ctx.ops.(ctx.pc) <- op;
  ctx.pc <- ctx.pc + 1

(* Bind [n] new slots, the first named [var]. *)
let bind ctx scope var n =
  let slot = scope.depth in
  ctx.slots <- max ctx.slots (slot + n);
  (slot, { vars = (var, slot) :: scope.vars; depth = slot + n })

(* [bound Int.max env min_int fs] is the largest of the [fs] at [env]. *)
let rec bound op env acc = function
  | [] -> acc
  | f :: fs -> bound op env (op acc (f env)) fs

let rec sat env = function [] -> true | p :: ps -> p env && sat env ps

(* A jump's target is known once its body is emitted, so the op at the
   head of a loop or conditional is emitted as a placeholder and set
   after. *)
let rec lower_block ctx scope stmts = List.iter (lower_stmt ctx scope) stmts

and lower_stmt ctx scope (s : Sw_ast.Ast.stmt) =
  match s with
  | Sw_ast.Ast.For { var; lbs; ubs; body } ->
      let lbs = List.map (lower_aff ctx scope) lbs
      and ubs = List.map (lower_aff ctx scope) ubs in
      let slot, inner = bind ctx scope var 2 in
      let head = ctx.pc in
      emit ctx (fun _ _ -> false);
      lower_block ctx inner body;
      emit ctx (fun _ env ->
          if env.(slot) < env.(slot + 1) then begin
            env.(slot) <- env.(slot) + 1;
            jump env (head + 1)
          end
          else next env);
      let exit = ctx.pc in
      ctx.ops.(head) <-
        (fun _ env ->
          let lo = bound Int.max env min_int lbs and hi = bound Int.min env max_int ubs in
          if lo = min_int || hi = max_int then
            fail "loop %s has no finite bound" var;
          env.(slot) <- lo;
          env.(slot + 1) <- hi;
          if lo > hi then jump env exit else next env)
  | Sw_ast.Ast.Let { var; value; body } ->
      let value = lower_aff ctx scope value in
      let slot, inner = bind ctx scope var 1 in
      emit ctx (fun _ env ->
          env.(slot) <- value env;
          next env);
      lower_block ctx inner body
  | Sw_ast.Ast.If { conds; body } ->
      let conds = List.map (lower_pred ctx scope) conds in
      let head = ctx.pc in
      emit ctx (fun _ _ -> false);
      lower_block ctx scope body;
      let skip = ctx.pc in
      ctx.ops.(head) <-
        (fun _ env -> if sat env conds then next env else jump env skip)
  | Sw_ast.Ast.Op c -> List.iter (emit ctx) (lower_op ctx scope c)
  | Sw_ast.Ast.User { name; args } ->
      let args = List.map (fun (it, a) -> (it, lower_aff ctx scope a)) args in
      emit ctx (fun cpe env ->
          match ctx.user with
          | Some f ->
              f ~rid:cpe.Cluster.rid ~cid:cpe.Cluster.cid name
                (List.map (fun (it, a) -> (it, a env)) args);
              next env
          | None -> fail "User statement %s but no user callback" name)
  | Sw_ast.Ast.Comment _ -> ()

let run ?trace ?faults ?watchdog ?retry ~config ~mem ?user
    (program : Sw_ast.Ast.program) =
  (* The simulator's single failure boundary: every typed error raised
     anywhere below, and a non-empty race list, come back as [Error]. *)
  match
    let cluster = Cluster.create ?trace ?faults ~config ~mem () in
    let engine = Cluster.engine cluster in
    Option.iter (Engine.set_watchdog engine) watchdog;
    Cluster.alloc_buffers cluster program.Sw_ast.Ast.spm_decls;
    Cluster.alloc_replies cluster program.Sw_ast.Ast.replies;
    let cpes = Cluster.cpes cluster in
    let ctx =
      {
        program;
        mem;
        cluster;
        user;
        (* Retry deadlines only matter when replies can be lost; without a
           fault plan every wait is satisfied normally, so disarm the
           deadline path and keep the fault-free simulation bit-identical
           to the plain model (no stale timeout events advancing the final
           clock). *)
        retry = (if faults = None then None else retry);
        retries = 0;
        ops = [||];
        pc = 0;
        slots = attempt + 1;
      }
    in
    lower_block ctx { vars = []; depth = attempt + 1 } program.Sw_ast.Ast.body;
    let ops = Array.sub ctx.ops 0 ctx.pc in
    let envs =
      Array.map
        (fun (c : Cluster.cpe) ->
          Array.init ctx.slots (function
            | 0 -> c.Cluster.rid
            | 1 -> c.Cluster.cid
            | _ -> 0))
        cpes
    in
    (* run a fiber until it suspends or its program ends *)
    let step fid =
      let cpe = cpes.(fid) and env = envs.(fid) in
      while env.(pc) < Array.length ops && not (ops.(env.(pc)) cpe env) do
        ()
      done
    in
    let finish = Engine.run engine ~resume:step ~event:(Cluster.complete cluster) in
    (finish, Cluster.races cluster, ctx.retries)
  with
  | exception Error.Sim_error e -> Error e
  | _, (_ :: _ as races), _ -> Error (Error.Race races)
  | finish, [], retries ->
      Ok { seconds = finish +. config.Config.mesh_startup_s; retries }
