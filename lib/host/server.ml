module Json = Sw_obs.Json
module Log = Sw_obs.Log
module Metrics = Sw_obs.Metrics

type handler =
  client:string ->
  meth:string ->
  params:Sw_obs.Json.t ->
  (Sw_obs.Json.t, Sw_arch.Error.t) result

type listener = {
  fd : Unix.file_descr;
  unlink_on_close : string option;  (** the Unix socket path *)
}

type stats = { served : int; errored : int; shed : int; connections : int }

type t = {
  handler : handler;
  ratelimit : Ratelimit.t option;
  supervisor : Supervise.t option;
  mutable listeners : listener list;
  stop : bool Atomic.t;
  mu : Mutex.t;
  mutable threads : Thread.t list;
  mutable served : int;
  mutable errored : int;
  mutable shed : int;
  mutable connections : int;
}

(* How often blocking loops wake up to poll the drain flag. *)
let poll_interval_s = 0.2

let create ?ratelimit ?supervisor ~handler () =
  {
    handler;
    ratelimit;
    supervisor;
    listeners = [];
    stop = Atomic.make false;
    mu = Mutex.create ();
    threads = [];
    served = 0;
    errored = 0;
    shed = 0;
    connections = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let drain t = Atomic.set t.stop true
let draining t = Atomic.get t.stop

let stats t =
  locked t @@ fun () ->
  {
    served = t.served;
    errored = t.errored;
    shed = t.shed;
    connections = t.connections;
  }

(* ------------------------------------------------------------------ *)
(* One request                                                          *)
(* ------------------------------------------------------------------ *)

(* Counters and the ambient metrics registry are shared by every
   connection thread (one domain), so both are touched under the one
   server mutex. *)
let note_outcome t ~meth ~shed ~seconds outcome =
  locked t @@ fun () ->
  t.served <- t.served + 1;
  Metrics.incr_a ~labels:[ ("method", meth) ] "server.requests_total";
  Metrics.observe_a "server.request_seconds" seconds;
  match outcome with
  | Ok _ -> ()
  | Error e ->
      t.errored <- t.errored + 1;
      if shed then t.shed <- t.shed + 1;
      Metrics.incr_a
        ~labels:[ ("class", Sw_arch.Error.class_of e) ]
        "server.errors_total"

let handle_line t ~client line =
  let t0 = Unix.gettimeofday () in
  match Wire.decode_request line with
  | Error e ->
      note_outcome t ~meth:"(malformed)" ~shed:false
        ~seconds:(Unix.gettimeofday () -. t0)
        (Error e);
      Log.warn ~scope:"server" "protocol error"
        [ ("client", Log.S client); ("error", Log.S (Sw_arch.Error.to_string e)) ];
      Wire.error_response ~id:"" e
  | Ok { Wire.id; meth; params } ->
      let shed = ref false in
      let result =
        match
          Option.fold ~none:(Ok ())
            ~some:(fun rl -> Ratelimit.admit rl ~key:client)
            t.ratelimit
        with
        | Error e ->
            shed := true;
            Error e
        | Ok () -> (
            match t.supervisor with
            | None -> t.handler ~client ~meth ~params
            | Some sup ->
                Supervise.run sup (fun () -> t.handler ~client ~meth ~params))
      in
      note_outcome t ~meth ~shed:!shed
        ~seconds:(Unix.gettimeofday () -. t0)
        result;
      (match result with
      | Ok _ ->
          Log.debug ~scope:"server" "served"
            [ ("client", Log.S client); ("method", Log.S meth) ]
      | Error e ->
          Log.info ~scope:"server" "request failed"
            [
              ("client", Log.S client);
              ("method", Log.S meth);
              ("class", Log.S (Sw_arch.Error.class_of e));
            ]);
      Wire.encode_response (Wire.response_of_result ~id result)

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
  end

(* [true] when [fd] has readable data (or EOF) within [poll_interval_s];
   EINTR counts as "nothing yet". *)
let readable fd =
  match Unix.select [ fd ] [] [] poll_interval_s with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* A line-oriented connection loop. Complete lines already buffered are
   always served — drain never drops a request the client finished
   sending — but once the flag is up an idle connection closes instead
   of waiting for more input. *)
let connection_loop t ~client fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 65_536 in
  let respond line =
    let resp = handle_line t ~client line ^ "\n" in
    write_all fd resp 0 (String.length resp)
  in
  (* Serve every complete line in [buf]; returns the unconsumed tail. *)
  let serve_buffered () =
    let data = Buffer.contents buf in
    Buffer.clear buf;
    let rec go start =
      match String.index_from_opt data start '\n' with
      | Some nl ->
          respond (String.sub data start (nl - start));
          go (nl + 1)
      | None -> Buffer.add_substring buf data start (String.length data - start)
    in
    go 0
  in
  let oversized () =
    (* no newline within the frame limit: the stream cannot be resynced,
       so answer once and hang up *)
    let e =
      Sw_arch.Error.Invalid
        (Printf.sprintf "frame exceeds %d bytes" Wire.max_frame_bytes)
    in
    let resp = Wire.error_response ~id:"" e ^ "\n" in
    write_all fd resp 0 (String.length resp)
  in
  let rec loop () =
    if Buffer.length buf > Wire.max_frame_bytes then oversized ()
    else if readable fd then begin
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          serve_buffered ();
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
    else if draining t then () (* idle + drain: close *)
    else loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop ()
      with Unix.Unix_error _ ->
        (* peer reset mid-frame: nothing to answer *)
        ())

let client_label conn_id addr =
  match addr with
  | Unix.ADDR_UNIX _ -> Printf.sprintf "unix#%d" conn_id
  | Unix.ADDR_INET (ip, _port) -> Unix.string_of_inet_addr ip

let accept_loop t listener =
  let rec loop () =
    if draining t then ()
    else if readable listener.fd then begin
      (match Unix.accept listener.fd with
      | fd, addr ->
          let conn_id =
            locked t @@ fun () ->
            t.connections <- t.connections + 1;
            t.connections
          in
          let client = client_label conn_id addr in
          Log.debug ~scope:"server" "connection"
            [ ("client", Log.S client) ];
          let th = Thread.create (fun () -> connection_loop t ~client fd) () in
          locked t (fun () -> t.threads <- th :: t.threads)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          ());
      loop ()
    end
    else loop ()
  in
  loop ();
  (try Unix.close listener.fd with Unix.Unix_error _ -> ());
  match listener.unlink_on_close with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let add_listener t l = locked t (fun () -> t.listeners <- l :: t.listeners)

let listen_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  add_listener t { fd; unlink_on_close = Some path }

let listen_tcp t ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  add_listener t { fd; unlink_on_close = None };
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> port

let serve t =
  let listeners = locked t (fun () -> t.listeners) in
  if listeners = [] then
    invalid_arg "Server.serve: no listener bound (listen_unix / listen_tcp)";
  Log.info ~scope:"server" "serving"
    [ ("listeners", Log.I (List.length listeners)) ];
  let acceptors =
    List.map (fun l -> Thread.create (fun () -> accept_loop t l) ()) listeners
  in
  List.iter Thread.join acceptors;
  (* no new connections past this point; join the connection threads *)
  let rec join_all () =
    match locked t (fun () -> t.threads) with
    | [] -> ()
    | threads ->
        List.iter Thread.join threads;
        locked t (fun () ->
            t.threads <-
              List.filter (fun th -> not (List.memq th threads)) t.threads);
        join_all ()
  in
  join_all ();
  let s = stats t in
  Log.info ~scope:"server" "drained"
    [
      ("served", Log.I s.served);
      ("errored", Log.I s.errored);
      ("shed", Log.I s.shed);
      ("connections", Log.I s.connections);
    ]
