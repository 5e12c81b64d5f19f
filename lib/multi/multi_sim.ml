open Sw_arch
open Sw_blas
open Sw_core

type stats = {
  seconds : float;
  gflops : float;
  distribution_s : float;
  per_cluster_s : float list;
  parallel_efficiency : float;
}

let job_bytes (j : Plan.job) =
  let s = j.Plan.spec in
  8
  * ((s.Spec.m * s.Spec.k) + (s.Spec.k * s.Spec.n) + (2 * s.Spec.m * s.Spec.n))

(* One pool per fan-out: cluster jobs are coarse enough that domain spawn
   cost is noise, and a transient pool keeps the API stateless. *)
let pool_map ?jobs f xs =
  let jobs =
    match jobs with Some j -> j | None -> Sw_host.Pool.default_jobs ()
  in
  Sw_host.Pool.with_pool ~jobs (fun p -> Sw_host.Pool.map p f xs)

let grid_key (j : Plan.job) = (j.Plan.grid_row, j.Plan.grid_col)

let measure ?jobs (session : Session.t) (plan : Plan.t) =
  let config = session.Session.config in
  let timed =
    pool_map ?jobs
      (fun (j : Plan.job) ->
        ( grid_key j,
          (Runner.measure (Compile.run_exn session j.Plan.spec)).Runner.seconds ))
      plan.Plan.jobs
  in
  (* Keyed by grid coordinates, not completion (or even job-list) order, so
     the stats are stable however the plan or the scheduler permutes jobs. *)
  let per_cluster_s =
    List.map snd
      (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) timed)
  in
  let total_bytes =
    List.fold_left (fun acc j -> acc + job_bytes j) 0 plan.Plan.jobs
  in
  let max_link =
    List.fold_left
      (fun acc j ->
        Float.max acc
          (float_of_int (job_bytes j) /. config.Config.noc_link_bw_bytes_per_s))
      0.0 plan.Plan.jobs
  in
  let distribution_s =
    Float.max max_link
      (float_of_int total_bytes /. config.Config.noc_src_bw_bytes_per_s)
    +. (2.0 *. config.Config.noc_latency_s)
  in
  let compute_s = List.fold_left Float.max 0.0 per_cluster_s in
  let seconds = distribution_s +. compute_s in
  let single =
    (Runner.measure (Compile.run_exn session plan.Plan.original)).Runner.seconds
  in
  {
    seconds;
    gflops = float_of_int (Spec.flops plan.Plan.original) /. seconds /. 1e9;
    distribution_s;
    per_cluster_s;
    parallel_efficiency =
      single /. (float_of_int (List.length plan.Plan.jobs) *. seconds);
  }

(* ------------------------------------------------------------------ *)
(* Functional verification                                             *)
(* ------------------------------------------------------------------ *)

(* [a], [b], [c] are this job's (unpadded) operand slices; returns the
   computed C block or a typed error. The job runs on the machine model it
   was compiled for, which a tuned lookup may have chosen over the
   session's. *)
let run_job (session : Session.t) (j : Plan.job) ~a ~b ~c =
  let s = j.Plan.spec in
  Result.bind (Compile.run session s) (fun compiled ->
      Runner.simulate ~config:compiled.Compile.config compiled.Compile.program
        ~operands:[ ("A", [| a |]); ("B", [| b |]); ("C", [| c |]) ]
      |> Result.map (fun (_, mem) ->
             (Runner.read mem "C" ~rows:s.Spec.m ~cols:s.Spec.n).(0)))

let verify ?(seed = 7) ?jobs (session : Session.t) (plan : Plan.t) =
  let spec = plan.Plan.original in
  let a = Matrix.random ~rows:spec.Spec.m ~cols:spec.Spec.k ~seed in
  let b = Matrix.random ~rows:spec.Spec.k ~cols:spec.Spec.n ~seed:(seed + 1) in
  let c = Matrix.random ~rows:spec.Spec.m ~cols:spec.Spec.n ~seed:(seed + 2) in
  let result = Matrix.copy c in
  (* Jobs only read the shared operands; every mutation (blitting blocks
     into [result]) happens after the pool barrier, in job order. *)
  let outcomes =
    pool_map ?jobs
      (fun (j : Plan.job) ->
        let s = j.Plan.spec in
        let a_slice =
          Matrix.sub_matrix a ~row:j.Plan.row_off ~col:0 ~rows:s.Spec.m
            ~cols:s.Spec.k
        in
        let b_slice =
          Matrix.sub_matrix b ~row:0 ~col:j.Plan.col_off ~rows:s.Spec.k
            ~cols:s.Spec.n
        in
        let c_slice =
          Matrix.sub_matrix c ~row:j.Plan.row_off ~col:j.Plan.col_off
            ~rows:s.Spec.m ~cols:s.Spec.n
        in
        run_job session j ~a:a_slice ~b:b_slice ~c:c_slice)
      plan.Plan.jobs
  in
  let rec reassemble js os =
    match (js, os) with
    | [], [] -> Ok ()
    | (j : Plan.job) :: jt, o :: ot -> (
        match o with
        | Error e -> Error e
        | Ok block ->
            Matrix.blit_into ~src:block ~dst:result ~row:j.Plan.row_off
              ~col:j.Plan.col_off;
            reassemble jt ot)
    | _ -> assert false
  in
  match reassemble plan.Plan.jobs outcomes with
  | Error e -> Error e
  | Ok () ->
      (* reference on the whole problem; the jobs compute the
         untransposed product of the sliced operands *)
      let cref =
        Runner.reference
          { spec with Spec.ta = false; tb = false }
          ~a:[| a |] ~b:[| b |] ~c:[| c |]
      in
      match Runner.first_mismatch cref [| result |] with
      | None -> Ok ()
      | Some (_, diff, scale) ->
          Error
            (Error.Invalid
               (Printf.sprintf "reassembled C differs by %.3e (scale %.3e)"
                  diff scale))
