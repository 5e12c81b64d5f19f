type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: empty shape";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols ~f =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.init: empty shape";
  {
    rows;
    cols;
    data = Array.init (rows * cols) (fun idx -> f (idx / cols) (idx mod cols));
  }

let random ~rows ~cols ~seed =
  let rng = Random.State.make [| seed; rows; cols |] in
  init ~rows ~cols ~f:(fun _ _ -> Random.State.float rng 2.0 -. 1.0)

let copy m = { m with data = Array.copy m.data }

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.cols) + j) <- v

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun idx x -> worst := Float.max !worst (abs_float (x -. b.data.(idx))))
    a.data;
  !worst

let transpose m = init ~rows:m.cols ~cols:m.rows ~f:(fun i j -> get m j i)

let map f m = { m with data = Array.map f m.data }

let round_up n ~multiple =
  if multiple <= 0 then invalid_arg "Matrix.round_up";
  (n + multiple - 1) / multiple * multiple

let sub_matrix m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || row + rows > m.rows || col + cols > m.cols then
    invalid_arg "Matrix.sub_matrix: out of bounds";
  init ~rows ~cols ~f:(fun i j -> get m (row + i) (col + j))

let blit_into ~src ~dst ~row ~col =
  if row < 0 || col < 0 || row + src.rows > dst.rows || col + src.cols > dst.cols
  then invalid_arg "Matrix.blit_into: out of bounds";
  for i = 0 to src.rows - 1 do
    Array.blit src.data (i * src.cols) dst.data
      (((row + i) * dst.cols) + col)
      src.cols
  done
