type array_info = { dims : int array; data : float array }

type t = (string, array_info) Hashtbl.t

let create () = Hashtbl.create 7

let alloc_init t name ~dims ~f =
  if Hashtbl.mem t name then
    invalid_arg ("Mem.alloc: duplicate array " ^ name);
  let dims = Array.of_list dims in
  (match Array.length dims with
  | 2 | 3 -> ()
  | _ -> invalid_arg "Mem.alloc: only 2-D and 3-D arrays are supported");
  Array.iter (fun d -> if d <= 0 then invalid_arg "Mem.alloc: empty extent") dims;
  let total = Array.fold_left ( * ) 1 dims in
  let data = Array.init total (fun flat ->
      (* decompose the flat index back into coordinates, row-major *)
      let idx = Array.make (Array.length dims) 0 in
      let rem = ref flat in
      for d = Array.length dims - 1 downto 0 do
        idx.(d) <- !rem mod dims.(d);
        rem := !rem / dims.(d)
      done;
      f idx)
  in
  Hashtbl.add t name { dims; data }

let alloc t name ~dims = alloc_init t name ~dims ~f:(fun _ -> 0.0)

let find t name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None -> invalid_arg ("Mem: unknown array " ^ name)

let data t name = (find t name).data
let dims t name = (find t name).dims

let row_len t name =
  let d = (find t name).dims in
  d.(Array.length d - 1)

let bounds name fmt =
  Printf.ksprintf
    (fun detail ->
      raise (Error.Sim_error (Error.Bounds { array_name = name; detail })))
    fmt

let offset t name ?batch ~row ~col () =
  let a = find t name in
  match (a.dims, batch) with
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
