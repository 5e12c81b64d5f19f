type handle = { name : string; dims : int array; data : float array }

(* [data] is [[||]] in a timing memory *)
type t = { functional : bool; arrays : (string, handle) Hashtbl.t }

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
  Hashtbl.add t.arrays name { name; dims; data }

let handle t name = Hashtbl.find_opt t.arrays name

let find t name =
  match handle t name with
  | Some h -> h
  | None -> invalid_arg ("Mem: unknown array " ^ name)

let data t name =
  let h = find t name in
  if not t.functional then
    invalid_arg ("Mem.data: timing memory holds no data for " ^ name);
  h.data

let dims t name = (find t name).dims

let bounds name fmt =
  Printf.ksprintf
    (fun detail ->
      raise (Error.Sim_error (Error.Bounds { array_name = name; detail })))
    fmt

let offset h ~batched ~batch ~row ~col =
  let name = h.name in
  match h.dims with
  | [| r; c |] when not batched ->
      if row < 0 || row >= r || col < 0 || col >= c then
        bounds name "(%d, %d) outside %s[%d][%d]" row col name r c;
      (row * c) + col
  | [| b; r; c |] when batched ->
      if batch < 0 || batch >= b || row < 0 || row >= r || col < 0 || col >= c
      then
        bounds name "(%d, %d, %d) outside %s[%d][%d][%d]" batch row col name b
          r c;
      (batch * r * c) + (row * c) + col
  | [| _; _ |] -> bounds name "batch index into 2-D array %s" name
  | _ -> bounds name "missing batch index for 3-D array %s" name
