(* Flight recorder: process-global bounded ring of recent observability
   records, dumped to results/flightrec-*.json on failure triggers.

   Global, not domain-local: trigger sites (store quarantine, compile
   failures, crash sites) fire from pool worker domains and the
   post-mortem must interleave everything the process did. One mutex
   guards the ring; the dump gathers under the lock and writes the file
   outside it. Off by default: with no recorder installed, [record] and
   [trigger] are a single ref read. *)

type record = { kind : string; ts : float; body : Json.t }

type t = {
  capacity : int;
  clock : unit -> float;
  dir : string;
  mutex : Mutex.t;
  ring : record option array;
  mutable head : int;  (* next write slot *)
  mutable count : int;  (* live records, <= capacity *)
  mutable dropped : int;  (* overwritten because the ring was full *)
  mutable dumps : int;  (* dump sequence, for unique filenames *)
}

let create ?(capacity = 256) ?(clock = Unix.gettimeofday)
    ?(dir = "results") () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  {
    capacity;
    clock;
    dir;
    mutex = Mutex.create ();
    ring = Array.make capacity None;
    head = 0;
    count = 0;
    dropped = 0;
    dumps = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let note t ~kind body =
  let r = { kind; ts = t.clock (); body } in
  locked t @@ fun () ->
  if t.ring.(t.head) <> None then t.dropped <- t.dropped + 1
  else t.count <- t.count + 1;
  t.ring.(t.head) <- Some r;
  t.head <- (t.head + 1) mod t.capacity

let records_locked t =
  (* oldest first: scan capacity slots starting at head *)
  let out = ref [] in
  for i = t.capacity - 1 downto 0 do
    match t.ring.((t.head + i) mod t.capacity) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let records t = locked t @@ fun () -> records_locked t
let length t = locked t @@ fun () -> t.count
let dropped t = locked t @@ fun () -> t.dropped

(* ------------------------------------------------------------------ *)
(* Ambient recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* A plain ref, like Crash.armed: installed once by the entry point,
   read (a single word) from every domain. *)
let installed : t option ref = ref None

let install t = installed := Some t
let uninstall () = installed := None
let enabled () = !installed <> None

let record ~kind body =
  match !installed with None -> () | Some t -> note t ~kind body

(* ------------------------------------------------------------------ *)
(* Dumping                                                              *)
(* ------------------------------------------------------------------ *)

let record_json (r : record) =
  Json.Obj
    [ ("kind", Json.String r.kind); ("ts", Json.Float r.ts); ("body", r.body) ]

let to_json ~reason t =
  let recs, dropped =
    locked t @@ fun () -> (records_locked t, t.dropped)
  in
  let metrics =
    match Metrics.current () with
    | Some r -> Metrics.to_json (Metrics.snapshot r)
    | None -> Json.Null
  in
  Json.Obj
    [
      ("reason", Json.String reason);
      ("ts", Json.Float (t.clock ()));
      ("capacity", Json.Int t.capacity);
      ("dropped", Json.Int dropped);
      ("records", Json.List (List.map record_json recs));
      ("metrics", metrics);
    ]

let default_path t =
  let n =
    locked t @@ fun () ->
    t.dumps <- t.dumps + 1;
    t.dumps
  in
  Filename.concat t.dir
    (Printf.sprintf "flightrec-%.0f-%d-%d.json"
       (1000.0 *. t.clock ())
       (Unix.getpid ()) n)

let dump ?path ~reason t =
  let path = match path with Some p -> p | None -> default_path t in
  (* a failing dump must never mask the failure being dumped *)
  (try Json.write_file ~pretty:true ~path (to_json ~reason t)
   with Sys_error _ | Unix.Unix_error _ -> ());
  path

let trigger ~reason =
  match !installed with None -> None | Some t -> Some (dump ~reason t)
