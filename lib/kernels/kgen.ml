type instr =
  | Ldc of { dst : int; off : int }
  | Stc of { src : int; off : int }
  | Lda_bcast of { dst : int; off : int }
  | Ldb of { dst : int; off : int }
  | Fma of { acc : int; a : int; b : int }

type t = {
  m : int;
  n : int;
  k : int;
  lanes : int;
  mr : int;
  nrv : int;
  nregs : int;
  body : instr array Lazy.t;
}

(* Choose the register blocking: maximize the FMA / memory-op ratio
   (mr*nrv) / (mr + nrv) under the budget mr*nrv + nrv + 1 <= nregs,
   breaking ties towards the larger block. *)
let choose_blocking ~nregs ~m ~nv =
  let best = ref None in
  for mr = 1 to min m 16 do
    for nrv = 1 to min nv 16 do
      if (mr * nrv) + nrv + 1 <= nregs then begin
        let ratio =
          float_of_int (mr * nrv) /. float_of_int (mr + nrv)
        in
        match !best with
        | Some (r, size, _, _) when r > ratio || (r = ratio && size >= mr * nrv)
          ->
            ()
        | _ -> best := Some (ratio, mr * nrv, mr, nrv)
      end
    done
  done;
  match !best with
  | Some (_, _, mr, nrv) -> (mr, nrv)
  | None -> (1, 1)

(* The fully unrolled kernel: for each [mr x nrv] register block, load
   its C block, then per reduction step load the B vectors and broadcast
   each A element into its FMAs, then store the block back. *)
let unroll ~lanes ~m ~n ~k ~mr ~nrv =
  let nv = n / lanes in
  let acc ii jj = (ii * nrv) + jj in
  let breg jj = (mr * nrv) + jj in
  let areg = (mr * nrv) + nrv in
  let body = ref [] in
  let emit i = body := i :: !body in
  let i0 = ref 0 in
  while !i0 < m do
    let bm = min mr (m - !i0) in
    let j0 = ref 0 in
    while !j0 < nv do
      let bn = min nrv (nv - !j0) in
      (* load the C register block *)
      for ii = 0 to bm - 1 do
        for jj = 0 to bn - 1 do
          emit
            (Ldc
               { dst = acc ii jj; off = ((!i0 + ii) * n) + ((!j0 + jj) * lanes) })
        done
      done;
      (* reduction *)
      for p = 0 to k - 1 do
        for jj = 0 to bn - 1 do
          emit (Ldb { dst = breg jj; off = (p * n) + ((!j0 + jj) * lanes) })
        done;
        for ii = 0 to bm - 1 do
          emit (Lda_bcast { dst = areg; off = ((!i0 + ii) * k) + p });
          for jj = 0 to bn - 1 do
            emit (Fma { acc = acc ii jj; a = areg; b = breg jj })
          done
        done
      done;
      (* store back *)
      for ii = 0 to bm - 1 do
        for jj = 0 to bn - 1 do
          emit
            (Stc
               { src = acc ii jj; off = ((!i0 + ii) * n) + ((!j0 + jj) * lanes) })
        done
      done;
      j0 := !j0 + bn
    done;
    i0 := !i0 + bm
  done;
  Array.of_list (List.rev !body)

let generate ?(lanes = 8) ?(nregs = 32) ~m ~n ~k () =
  if m <= 0 || n <= 0 || k <= 0 then Error "non-positive dimension"
  else if n mod lanes <> 0 then
    Error (Printf.sprintf "n = %d is not a multiple of the vector width %d" n lanes)
  else if nregs < 3 then Error "at least three vector registers are needed"
  else
    let mr, nrv = choose_blocking ~nregs ~m ~nv:(n / lanes) in
    Ok
      {
        m; n; k; lanes; mr; nrv; nregs;
        body = lazy (unroll ~lanes ~m ~n ~k ~mr ~nrv);
      }

(* Register blocks down the rows and across the vector columns. *)
let blocks t =
  ((t.m + t.mr - 1) / t.mr, ((t.n / t.lanes) + t.nrv - 1) / t.nrv)

(* What the unrolled body holds, in closed form: each register block loads
   and stores its C block once and, per reduction step, loads its B
   vectors and one A broadcast per row. *)
let counts t =
  let nv = t.n / t.lanes and row_blocks, col_blocks = blocks t in
  ( t.m * nv * t.k,
    (2 * t.m * nv) + (t.k * ((row_blocks * nv) + (col_blocks * t.m))) )

let register_pressure t =
  Array.fold_left
    (fun hi i ->
      match i with
      | Ldc { dst = r; _ } | Lda_bcast { dst = r; _ } | Ldb { dst = r; _ } ->
          max hi (r + 1)
      | Stc { src = r; _ } -> max hi (r + 1)
      | Fma { acc; a; b } -> max hi (max (acc + 1) (max (a + 1) (b + 1))))
    0 (Lazy.force t.body)

let validate t =
  if register_pressure t > t.nregs then
    Error
      (Printf.sprintf "register pressure %d exceeds the budget %d"
         (register_pressure t) t.nregs)
  else begin
    let written = Array.make t.nregs false in
    let ok = ref (Ok ()) in
    Array.iter
      (fun i ->
        let read r =
          if (not written.(r)) && !ok = Ok () then
            ok := Error (Printf.sprintf "register %d read before written" r)
        in
        match i with
        | Ldc { dst; _ } | Lda_bcast { dst; _ } | Ldb { dst; _ } ->
            written.(dst) <- true
        | Stc { src; _ } -> read src
        | Fma { acc; a; b } ->
            read acc;
            read a;
            read b)
      (Lazy.force t.body);
    !ok
  end

let run t ~alpha ~accumulate ~a ~b ~c =
  if Array.length a < t.m * t.k then invalid_arg "Kgen.run: A too small";
  if Array.length b < t.k * t.n then invalid_arg "Kgen.run: B too small";
  if Array.length c < t.m * t.n then invalid_arg "Kgen.run: C too small";
  if not accumulate then Array.fill c 0 (t.m * t.n) 0.0;
  let regs = Array.make_matrix t.nregs t.lanes 0.0 in
  Array.iter
    (fun i ->
      match i with
      | Ldc { dst; off } -> Array.blit c off regs.(dst) 0 t.lanes
      | Stc { src; off } -> Array.blit regs.(src) 0 c off t.lanes
      | Lda_bcast { dst; off } -> Array.fill regs.(dst) 0 t.lanes (alpha *. a.(off))
      | Ldb { dst; off } -> Array.blit b off regs.(dst) 0 t.lanes
      | Fma { acc; a = ra; b = rb } ->
          let va = regs.(ra) and vb = regs.(rb) and vc = regs.(acc) in
          for l = 0 to t.lanes - 1 do
            vc.(l) <- vc.(l) +. (va.(l) *. vb.(l))
          done)
    (Lazy.force t.body)

let estimated_cycles t =
  let fma, mem = counts t in
  (* dual issue: one FMA pipe, one load/store pipe; the C block epilogue and
     per-block loop control are exposed *)
  let row_blocks, col_blocks = blocks t in
  let nblocks = row_blocks * col_blocks in
  float_of_int (max fma mem) +. (16.0 *. float_of_int nblocks) +. 48.0

let estimated_efficiency t =
  let flops = float_of_int (2 * t.m * t.n * t.k) in
  let peak_per_cycle = float_of_int (2 * t.lanes) in
  flops /. (estimated_cycles t *. peak_per_cycle)
