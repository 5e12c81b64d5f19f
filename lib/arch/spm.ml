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
  copies : int;
  data : float array array;  (* per copy; [||] in timing-only mode *)
  spans : float array;
      (* per copy [c], from [4c]: last write start and finish, then last
         read start and finish *)
}

let create ~capacity_bytes ~functional =
  { capacity = capacity_bytes; functional; buffers = []; used = 0; races = [] }

let invalid msg = raise (Error.Sim_error (Error.Invalid msg))

let alloc t name ~rows ~cols ~copies =
  if List.mem name t.buffers then invalid ("Spm.alloc: duplicate buffer " ^ name);
  if rows <= 0 || cols <= 0 || copies <= 0 then
    invalid ("Spm.alloc: empty buffer " ^ name);
  let bytes = 8 * rows * cols * copies in
  let available = t.capacity - t.used in
  if bytes > available then
    raise
      (Error.Sim_error
         (Error.Overflow
            { buffer = name; needed = bytes; available; capacity = t.capacity }));
  t.used <- t.used + bytes;
  t.buffers <- name :: t.buffers;
  {
    spm = t;
    name;
    copies;
    data =
      (if t.functional then
         Array.init copies (fun _ -> Array.make (rows * cols) 0.0)
       else [||]);
    spans = Array.make (4 * copies) neg_infinity;
  }

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

(* Record a conflict if [start, finish) overlaps the span at [o]. The
   notes are inlined into the simulator, so intervals stay unboxed. *)
let[@inline] check_overlap b c kind ~start ~finish o =
  let prev_start = b.spans.(o) and prev_finish = b.spans.(o + 1) in
  if start < prev_finish && prev_start < finish then
    b.spm.races <-
      {
        Error.buffer = b.name;
        copy = c;
        kind;
        op_start = start;
        op_finish = finish;
        prev_start;
        prev_finish;
      }
      :: b.spm.races

let[@inline] note_write b ~copy:c ~start ~finish =
  check_copy b c;
  let o = 4 * c in
  check_overlap b c `Write_read ~start ~finish (o + 2);
  check_overlap b c `Write_write ~start ~finish o;
  b.spans.(o) <- start;
  b.spans.(o + 1) <- finish

let[@inline] note_read b ~copy:c ~start ~finish =
  check_copy b c;
  let o = 4 * c in
  check_overlap b c `Read_write ~start ~finish o;
  b.spans.(o + 2) <- start;
  b.spans.(o + 3) <- finish

let races t = List.rev t.races

let corrupt b ~copy ~index ~delta =
  check_copy b copy;
  if b.spm.functional then begin
    let tile = b.data.(copy) in
    if index >= 0 && index < Array.length tile then
      tile.(index) <- tile.(index) +. delta
  end
