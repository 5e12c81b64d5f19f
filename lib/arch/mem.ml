(* name -> (dims, data); data is [[||]] in a timing memory *)
type t = { functional : bool; arrays : (string, int array * float array) Hashtbl.t }

let create ~functional = { functional; arrays = Hashtbl.create 7 }
let functional t = t.functional

let alloc t name ~dims =
  if Hashtbl.mem t.arrays name then
    invalid_arg ("Mem.alloc: duplicate array " ^ name);
  let dims = Array.of_list dims in
  (match Array.length dims with
  | 2 | 3 -> ()
  | _ -> invalid_arg "Mem.alloc: only 2-D and 3-D arrays are supported");
  Array.iter (fun d -> if d <= 0 then invalid_arg "Mem.alloc: empty extent") dims;
  let data =
    if t.functional then Array.make (Array.fold_left ( * ) 1 dims) 0.0
    else [||]
  in
  Hashtbl.add t.arrays name (dims, data)

let find t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a -> a
  | None -> invalid_arg ("Mem: unknown array " ^ name)

let data t name =
  let _, data = find t name in
  if not t.functional then
    invalid_arg ("Mem.data: timing memory holds no data for " ^ name);
  data

let dims t name = fst (find t name)

let row_len t name =
  let d = dims t name in
  d.(Array.length d - 1)

let bounds name fmt =
  Printf.ksprintf
    (fun detail ->
      raise (Error.Sim_error (Error.Bounds { array_name = name; detail })))
    fmt

let offset t name ?batch ~row ~col () =
  match (dims t name, batch) with
  | [| r; c |], None ->
      if row < 0 || row >= r || col < 0 || col >= c then
        bounds name "(%d, %d) outside %s[%d][%d]" row col name r c;
      (row * c) + col
  | [| b; r; c |], Some bi ->
      if bi < 0 || bi >= b || row < 0 || row >= r || col < 0 || col >= c then
        bounds name "(%d, %d, %d) outside %s[%d][%d][%d]" bi row col name b r c;
      (bi * r * c) + (row * c) + col
  | [| _; _ |], Some _ -> bounds name "batch index into 2-D array %s" name
  | [| _; _; _ |], None -> bounds name "missing batch index for 3-D array %s" name
  | _ -> assert false
