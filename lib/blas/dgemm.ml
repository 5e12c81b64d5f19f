let check_shapes ~a ~b ~c =
  if
    a.Matrix.cols <> b.Matrix.rows
    || c.Matrix.rows <> a.Matrix.rows
    || c.Matrix.cols <> b.Matrix.cols
  then invalid_arg "Dgemm: incompatible shapes"

let gemm ~alpha ~beta ~a ~b ~c =
  check_shapes ~a ~b ~c;
  let m = a.Matrix.rows and k = a.Matrix.cols and n = b.Matrix.cols in
  let ad = a.Matrix.data and bd = b.Matrix.data and cd = c.Matrix.data in
  for i = 0 to m - 1 do
    let crow = i * n in
    for j = 0 to n - 1 do
      cd.(crow + j) <- beta *. cd.(crow + j)
    done;
    for p = 0 to k - 1 do
      let av = alpha *. ad.((i * k) + p) in
      if av <> 0.0 then begin
        let brow = p * n in
        for j = 0 to n - 1 do
          cd.(crow + j) <- cd.(crow + j) +. (av *. bd.(brow + j))
        done
      end
    done
  done

let gemm_flops ~m ~n ~k = 2 * m * n * k

let batched ~alpha ~beta ~a ~b ~c =
  if Array.length a <> Array.length b || Array.length a <> Array.length c then
    invalid_arg "Dgemm.batched: batch size mismatch";
  Array.iteri (fun i ai -> gemm ~alpha ~beta ~a:ai ~b:b.(i) ~c:c.(i)) a

let fused_prologue ~fn ~alpha ~beta ~a ~b ~c =
  let qa = Matrix.map (Sw_kernels.Elementwise.reference fn) a in
  gemm ~alpha ~beta ~a:qa ~b ~c

let fused_epilogue ~fn ~alpha ~beta ~a ~b ~c =
  gemm ~alpha ~beta ~a ~b ~c;
  let f = Sw_kernels.Elementwise.reference fn in
  Array.iteri (fun idx x -> c.Matrix.data.(idx) <- f x) c.Matrix.data
