type buffer = {
  rows : int;
  cols : int;
  copies : int;
  data : float array array;  (* per copy; [||] in timing-only mode *)
  last_write : (float * float) array;  (* per copy *)
  last_read : (float * float) array;
}

type t = {
  capacity : int;
  functional : bool;
  buffers : (string, buffer) Hashtbl.t;
  mutable used : int;
  mutable races : Error.conflict list;
}

let create ~capacity_bytes ~functional =
  {
    capacity = capacity_bytes;
    functional;
    buffers = Hashtbl.create 7;
    used = 0;
    races = [];
  }

let alloc t name ~rows ~cols ~copies =
  if Hashtbl.mem t.buffers name then
    failwith ("Spm.alloc: duplicate buffer " ^ name);
  if rows <= 0 || cols <= 0 || copies <= 0 then
    failwith ("Spm.alloc: empty buffer " ^ name);
  let bytes = 8 * rows * cols * copies in
  if t.used + bytes > t.capacity then
    raise
      (Error.Sim_error
         (Error.Overflow
            {
              buffer = name;
              needed = bytes;
              available = t.capacity - t.used;
              capacity = t.capacity;
            }));
  t.used <- t.used + bytes;
  let none = (neg_infinity, neg_infinity) in
  Hashtbl.add t.buffers name
    {
      rows;
      cols;
      copies;
      data =
        (if t.functional then
           Array.init copies (fun _ -> Array.make (rows * cols) 0.0)
         else [||]);
      last_write = Array.make copies none;
      last_read = Array.make copies none;
    }

let find t name =
  match Hashtbl.find_opt t.buffers name with
  | Some b -> b
  | None -> failwith ("Spm: unknown buffer " ^ name)

let get_copy t name copy =
  let b = find t name in
  if copy < 0 || copy >= b.copies then
    failwith
      (Printf.sprintf "Spm: copy %d out of range for %s (%d copies)" copy name
         b.copies);
  (b, copy)

let tile t name ~copy =
  let b, c = get_copy t name copy in
  if not t.functional then
    failwith "Spm.tile: no data in timing-only mode";
  b.data.(c)

let copies t name = (find t name).copies

let overlap (s1, f1) (s2, f2) = s1 < f2 && s2 < f1

let conflict t name c kind ~start ~finish ~prev =
  t.races <-
    {
      Error.buffer = name;
      copy = c;
      kind;
      op_start = start;
      op_finish = finish;
      prev_start = fst prev;
      prev_finish = snd prev;
    }
    :: t.races

let note_write t name ~copy ~start ~finish =
  let b, c = get_copy t name copy in
  if overlap (start, finish) b.last_read.(c) then
    conflict t name c `Write_read ~start ~finish ~prev:b.last_read.(c);
  if overlap (start, finish) b.last_write.(c) then
    conflict t name c `Write_write ~start ~finish ~prev:b.last_write.(c);
  b.last_write.(c) <- (start, finish)

let note_read t name ~copy ~start ~finish =
  let b, c = get_copy t name copy in
  if overlap (start, finish) b.last_write.(c) then
    conflict t name c `Read_write ~start ~finish ~prev:b.last_write.(c);
  b.last_read.(c) <- (start, finish)

let races t = List.rev t.races

let corrupt t name ~copy ~index ~delta =
  let b, c = get_copy t name copy in
  if t.functional then begin
    let tile = b.data.(c) in
    if index >= 0 && index < Array.length tile then
      tile.(index) <- tile.(index) +. delta
  end
