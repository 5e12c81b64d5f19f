let dgemm_tile ~m ~n ~k ~alpha ~accumulate ~a ~ao ~b ~bo ~c ~co =
  if not accumulate then
    for idx = 0 to (m * n) - 1 do
      c.(co + idx) <- 0.0
    done;
  for i = 0 to m - 1 do
    for p = 0 to k - 1 do
      let av = alpha *. a.(ao + (i * k) + p) in
      if av <> 0.0 then begin
        let crow = co + (i * n) and brow = bo + (p * n) in
        for j = 0 to n - 1 do
          c.(crow + j) <- c.(crow + j) +. (av *. b.(brow + j))
        done
      end
    done
  done

let dgemm_tile_t ~ta ~tb ~m ~n ~k ~alpha ~accumulate ~a ~ao ~b ~bo ~c ~co =
  if (not ta) && not tb then
    dgemm_tile ~m ~n ~k ~alpha ~accumulate ~a ~ao ~b ~bo ~c ~co
  else begin
    if not accumulate then
      for idx = 0 to (m * n) - 1 do
        c.(co + idx) <- 0.0
      done;
    let ga i p = if ta then a.(ao + (p * m) + i) else a.(ao + (i * k) + p) in
    let gb p j = if tb then b.(bo + (j * k) + p) else b.(bo + (p * n) + j) in
    for i = 0 to m - 1 do
      for p = 0 to k - 1 do
        let av = alpha *. ga i p in
        if av <> 0.0 then begin
          let crow = co + (i * n) in
          for j = 0 to n - 1 do
            c.(crow + j) <- c.(crow + j) +. (av *. gb p j)
          done
        end
      done
    done
  end

let flops ~m ~n ~k = 2 * m * n * k
