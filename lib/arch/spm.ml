type t = {
  capacity : int;
  functional : bool;
  mutable buffers : string list;  (* names allocated so far, newest first *)
  mutable used : int;
  mutable races : Error.conflict list;
}

and buffer = {
  spm : t;
  name : string;
  index : int;
  copies : int;
  data : float array array;  (* per copy; [||] in timing-only mode *)
  last_write : (float * float) array;  (* per copy *)
  last_read : (float * float) array;
}

let create ~capacity_bytes ~functional =
  { capacity = capacity_bytes; functional; buffers = []; used = 0; races = [] }

let alloc t name ~rows ~cols ~copies =
  if List.mem name t.buffers then
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
  let index = List.length t.buffers in
  t.buffers <- name :: t.buffers;
  let none = (neg_infinity, neg_infinity) in
  {
    spm = t;
    name;
    index;
    copies;
    data =
      (if t.functional then
         Array.init copies (fun _ -> Array.make (rows * cols) 0.0)
       else [||]);
    last_write = Array.make copies none;
    last_read = Array.make copies none;
  }

let index b = b.index
let copies b = b.copies

let check_copy b copy =
  if copy < 0 || copy >= b.copies then
    failwith
      (Printf.sprintf "Spm: copy %d out of range for %s (%d copies)" copy
         b.name b.copies)

let tile b ~copy =
  check_copy b copy;
  if not b.spm.functional then
    failwith "Spm.tile: no data in timing-only mode";
  b.data.(copy)

let overlap (s1, f1) (s2, f2) = s1 < f2 && s2 < f1

let conflict b c kind ~start ~finish ~prev =
  b.spm.races <-
    {
      Error.buffer = b.name;
      copy = c;
      kind;
      op_start = start;
      op_finish = finish;
      prev_start = fst prev;
      prev_finish = snd prev;
    }
    :: b.spm.races

let note_write b ~copy:c ~start ~finish =
  check_copy b c;
  if overlap (start, finish) b.last_read.(c) then
    conflict b c `Write_read ~start ~finish ~prev:b.last_read.(c);
  if overlap (start, finish) b.last_write.(c) then
    conflict b c `Write_write ~start ~finish ~prev:b.last_write.(c);
  b.last_write.(c) <- (start, finish)

let note_read b ~copy:c ~start ~finish =
  check_copy b c;
  if overlap (start, finish) b.last_write.(c) then
    conflict b c `Read_write ~start ~finish ~prev:b.last_write.(c);
  b.last_read.(c) <- (start, finish)

let races t = List.rev t.races

let corrupt b ~copy ~index ~delta =
  check_copy b copy;
  if b.spm.functional then begin
    let tile = b.data.(copy) in
    if index >= 0 && index < Array.length tile then
      tile.(index) <- tile.(index) +. delta
  end
