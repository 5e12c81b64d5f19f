open Sw_arch
open Sw_blas
open Sw_core

type noc = {
  link_bw_bytes_per_s : float;
  src_bw_bytes_per_s : float;
  latency_s : float;
}

(* Calibration lives in {!Arch_desc.default_noc}; this is the same record
   shape minus the field-name prefix. *)
let noc_of_desc (n : Arch_desc.noc) =
  {
    link_bw_bytes_per_s = n.Arch_desc.link_bw_bytes_per_s;
    src_bw_bytes_per_s = n.Arch_desc.src_bw_bytes_per_s;
    latency_s = n.Arch_desc.noc_latency_s;
  }

let default_noc = noc_of_desc Arch_desc.default_noc

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

let measure ?(noc = default_noc) ?jobs (session : Session.t) (plan : Plan.t) =
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
        Float.max acc (float_of_int (job_bytes j) /. noc.link_bw_bytes_per_s))
      0.0 plan.Plan.jobs
  in
  let distribution_s =
    Float.max max_link (float_of_int total_bytes /. noc.src_bw_bytes_per_s)
    +. (2.0 *. noc.latency_s)
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

let install_matrix mem name (m : Matrix.t) =
  Mem.alloc_init mem name
    ~dims:[ m.Matrix.rows; m.Matrix.cols ]
    ~f:(fun idx -> Matrix.get m idx.(0) idx.(1))

let run_job (session : Session.t) (j : Plan.job) ~a ~b ~c =
  (* [a], [b], [c] are this job's (unpadded) operand slices; returns the
     computed C block or a typed error. *)
  match Compile.run session j.Plan.spec with
  | Error e -> Error e
  | Ok compiled -> (
      let padded = compiled.Compile.spec in
      let mem = Mem.create () in
      install_matrix mem "A"
        (Matrix.pad a ~rows:padded.Spec.m ~cols:padded.Spec.k);
      install_matrix mem "B"
        (Matrix.pad b ~rows:padded.Spec.k ~cols:padded.Spec.n);
      install_matrix mem "C"
        (Matrix.pad c ~rows:padded.Spec.m ~cols:padded.Spec.n);
      match
        Interp.run ~config:session.Session.config ~functional:true ~mem
          compiled.Compile.program
      with
      | Error e -> Error e
      | Ok _ ->
          let data = Mem.data mem "C" in
          let full =
            Matrix.init ~rows:padded.Spec.m ~cols:padded.Spec.n ~f:(fun i jj ->
                data.((i * padded.Spec.n) + jj))
          in
          Ok
            (Matrix.unpad full ~rows:j.Plan.spec.Spec.m
               ~cols:j.Plan.spec.Spec.n))

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
      (* reference on the whole problem *)
      let cref = Matrix.copy c in
      (match spec.Spec.fusion with
      | Spec.No_fusion ->
          Dgemm.gemm ~alpha:spec.Spec.alpha ~beta:spec.Spec.beta ~a ~b ~c:cref
      | Spec.Prologue fn ->
          Dgemm.fused_prologue ~fn ~alpha:spec.Spec.alpha ~beta:spec.Spec.beta
            ~a ~b ~c:cref
      | Spec.Epilogue fn ->
          Dgemm.fused_epilogue ~fn ~alpha:spec.Spec.alpha ~beta:spec.Spec.beta
            ~a ~b ~c:cref);
      let diff = Matrix.max_abs_diff cref result in
      let scale =
        Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 1.0
          cref.Matrix.data
      in
      if diff > 1e-9 *. scale then
        Error
          (Error.Invalid
             (Printf.sprintf "reassembled C differs by %.3e (scale %.3e)" diff
                scale))
      else Ok ()
