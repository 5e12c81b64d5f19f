module Json = Sw_obs.Json
module Metrics = Sw_obs.Metrics

type client_row = {
  client : int;
  requests : int;
  errors : int;
  mean_s : float;
  max_s : float;
}

type result = {
  wall_s : float;
  rows : client_row list;
  latencies : float list;
  errors : int;
  identical_c : bool;
  first : Json.t option;
}

let c_pair body =
  match (Json.member "mpe_c" body, Json.member "cpe_c" body) with
  | Some (Json.String m), Some (Json.String c) -> Some (m, c)
  | _ -> None

(* One worker: its own connection, its share of the requests, issued
   sequentially. Returns the raw latencies, the error count, the first
   successful body and the distinct C variants it saw (normally one). *)
let worker ~connect ~params ~n client =
  let conn = connect () in
  Fun.protect ~finally:(fun () -> Sw_host.Client.close conn) @@ fun () ->
  let lats = ref [] and errors = ref 0 in
  let first = ref None and variants = ref [] in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    (match Sw_host.Client.call conn ~meth:"compile" ~params () with
    | Ok body ->
        if !first = None then first := Some body;
        Option.iter
          (fun pair ->
            if not (List.mem pair !variants) then variants := pair :: !variants)
          (c_pair body)
    | Error _ -> incr errors);
    let dt = Unix.gettimeofday () -. t0 in
    Metrics.observe_a "service.request_seconds" dt;
    lats := dt :: !lats
  done;
  (client, List.rev !lats, !errors, !first, !variants)

let run ~connect ~params ~clients ~requests () =
  if clients < 1 then invalid_arg "Loadgen.run: clients must be >= 1";
  if requests < 1 then invalid_arg "Loadgen.run: requests must be >= 1";
  let share i = (requests / clients) + if i < requests mod clients then 1 else 0 in
  let t0 = Unix.gettimeofday () in
  let per_client =
    Sw_host.Pool.with_pool ~jobs:clients @@ fun pool ->
    Sw_host.Pool.map pool
      (fun i -> worker ~connect ~params ~n:(share i) i)
      (List.init clients Fun.id)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let rows =
    List.map
      (fun (client, lats, errors, _, _) ->
        let n = List.length lats in
        let sum = List.fold_left ( +. ) 0.0 lats in
        {
          client;
          requests = n;
          errors;
          mean_s = (if n = 0 then 0.0 else sum /. float_of_int n);
          max_s = List.fold_left Float.max 0.0 lats;
        })
      per_client
  in
  let latencies =
    List.concat_map (fun (_, lats, _, _, _) -> lats) per_client
  in
  let errors = List.fold_left (fun a (_, _, e, _, _) -> a + e) 0 per_client in
  let variants =
    List.fold_left
      (fun acc (_, _, _, _, vs) ->
        List.fold_left
          (fun acc v -> if List.mem v acc then acc else v :: acc)
          acc vs)
      [] per_client
  in
  let first =
    List.find_map (fun (_, _, _, first, _) -> first) per_client
  in
  { wall_s; rows; latencies; errors; identical_c = List.length variants <= 1; first }

let quantile_ms latencies q =
  match latencies with
  | [] -> 0.0
  | _ -> (
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "service.request_seconds" in
      List.iter (Metrics.observe h) latencies;
      match Metrics.find (Metrics.snapshot reg) "service.request_seconds" with
      | None -> 0.0
      | Some v -> (
          match Metrics.quantile v q with
          | Some s -> s *. 1000.0
          | None -> 0.0))

let columns = [ "client"; "requests"; "errors"; "mean_ms"; "max_ms" ]

let row_cells row =
  [
    string_of_int row.client;
    string_of_int row.requests;
    string_of_int row.errors;
    Printf.sprintf "%.3f" (1000.0 *. row.mean_s);
    Printf.sprintf "%.3f" (1000.0 *. row.max_s);
  ]
