type hist = {
  lower : float;
  growth : float;
  nbuckets : int;
  counts : int array;  (* nbuckets + 2: underflow, buckets, overflow *)
  mutable n : int;
  mutable sum : float;
}

type instrument =
  | C of int ref
  | G of float ref
  | H of hist

type key = string * (string * string) list

type registry = (key, instrument) Hashtbl.t

let create () : registry = Hashtbl.create 64

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

type counter = int ref
type gauge = float ref
type histogram = hist

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let get (r : registry) ~labels name make expect =
  let k = (name, norm_labels labels) in
  match Hashtbl.find_opt r k with
  | Some i -> (
      match expect i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name i)))
  | None ->
      let i = make () in
      Hashtbl.add r k i;
      (match expect i with Some x -> x | None -> assert false)

let counter r ?(labels = []) name =
  get r ~labels name
    (fun () -> C (ref 0))
    (function C c -> Some c | _ -> None)

let gauge r ?(labels = []) name =
  get r ~labels name
    (fun () -> G (ref 0.0))
    (function G g -> Some g | _ -> None)

let histogram r ?(labels = []) ?(lower = 1e-9) ?(growth = 2.0) ?(buckets = 48)
    name =
  if lower <= 0.0 || growth <= 1.0 || buckets <= 0 then
    invalid_arg "Metrics.histogram: need lower > 0, growth > 1, buckets > 0";
  get r ~labels name
    (fun () ->
      H
        {
          lower;
          growth;
          nbuckets = buckets;
          counts = Array.make (buckets + 2) 0;
          n = 0;
          sum = 0.0;
        })
    (function H h -> Some h | _ -> None)

let incr ?(by = 1) c = c := !c + by
let set g v = g := v

let bucket_index h v =
  if not (v >= h.lower) (* catches nan, negatives, zero, underflow *) then 0
  else
    let i = int_of_float (Float.log (v /. h.lower) /. Float.log h.growth) in
    (* guard against log rounding placing a boundary value one off *)
    let i = if i < 0 then 0 else if i >= h.nbuckets then h.nbuckets - 1 else i in
    let lo_i = h.lower *. (h.growth ** float_of_int i) in
    let i = if v < lo_i && i > 0 then i - 1 else i in
    let i =
      if v >= lo_i *. h.growth && i < h.nbuckets - 1 then i + 1 else i
    in
    if v >= h.lower *. (h.growth ** float_of_int h.nbuckets) then h.nbuckets + 1
    else i + 1

let observe h v =
  let i = bucket_index h v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. (if Float.is_nan v then 0.0 else v)

(* ------------------------------------------------------------------ *)
(* Ambient registry                                                     *)
(* ------------------------------------------------------------------ *)

(* Domain-local: each domain installs (and instruments against) its own
   registry, so parallel workers never share mutable instruments. The host
   pool gives every task a fresh registry and absorbs the snapshots into
   the parent's registry afterwards, in task order. *)
let ambient : registry option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let install r = Domain.DLS.set ambient (Some r)
let uninstall () = Domain.DLS.set ambient None
let current () = Domain.DLS.get ambient
let enabled () = current () <> None

let incr_a ?(labels = []) ?by name =
  match current () with
  | None -> ()
  | Some r -> incr ?by (counter r ~labels name)

let set_a ?(labels = []) name v =
  match current () with
  | None -> ()
  | Some r -> set (gauge r ~labels name) v

let observe_a ?(labels = []) name v =
  match current () with
  | None -> ()
  | Some r -> observe (histogram r ~labels name) v

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      lower : float;
      growth : float;
      n : int;
      sum : float;
      counts : int array;
    }

type snapshot = (key * value) list

(* Registry keys are normalized at instrument creation, but a snapshot's
   order must never depend on how a key was produced (insertion order,
   absorb order, a hand-built snapshot fed through absorb): re-sort the
   label set of every key here so to_text/to_json are byte-identical for
   any construction order and any --jobs value. *)
let snapshot (r : registry) =
  Hashtbl.fold
    (fun (name, labels) i acc ->
      let k = (name, norm_labels labels) in
      let v =
        match i with
        | C c -> Counter !c
        | G g -> Gauge !g
        | H h ->
            Histogram
              {
                lower = h.lower;
                growth = h.growth;
                n = h.n;
                sum = h.sum;
                counts = Array.copy h.counts;
              }
      in
      (k, v) :: acc)
    r []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)

(* after - before, matched pointwise on after's entries *)
let diff ~before ~after =
  List.filter_map
    (fun (k, av) ->
      match (List.assoc_opt k before, av) with
      | None, _ -> Some (k, av)
      | Some (Counter cb), Counter ca -> Some (k, Counter (ca - cb))
      | Some (Histogram hb), Histogram ha ->
          Some
            ( k,
              Histogram
                {
                  ha with
                  n = ha.n - hb.n;
                  sum = ha.sum -. hb.sum;
                  counts = Array.mapi (fun i c -> c - hb.counts.(i)) ha.counts;
                } )
      | Some _, _ -> Some (k, av))
    after

(* Add a snapshot's values into a live registry: counters and histogram
   counts/sums accumulate, gauges take the snapshot's value (absorbing
   snapshots in task order therefore reproduces the sequential last-writer
   outcome). Histogram bucket parameters come from the snapshot when the
   instrument does not exist yet; when it does, counts are added pointwise
   up to the shorter bucket array. *)
let absorb (r : registry) (s : snapshot) =
  List.iter
    (fun ((name, labels), v) ->
      match v with
      | Counter c -> incr ~by:c (counter r ~labels name)
      | Gauge g -> set (gauge r ~labels name) g
      | Histogram h ->
          let dst =
            histogram r ~labels ~lower:h.lower ~growth:h.growth
              ~buckets:(Array.length h.counts - 2)
              name
          in
          let len = min (Array.length dst.counts) (Array.length h.counts) in
          for i = 0 to len - 1 do
            dst.counts.(i) <- dst.counts.(i) + h.counts.(i)
          done;
          dst.n <- dst.n + h.n;
          dst.sum <- dst.sum +. h.sum)
    s

let find (s : snapshot) ?(labels = []) name =
  List.assoc_opt (name, norm_labels labels) s

let label_string labels =
  match labels with
  | [] -> ""
  | l ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
      ^ "}"

let to_text (s : snapshot) =
  let buf = Buffer.create 512 in
  List.iter
    (fun ((name, labels), v) ->
      let id = name ^ label_string labels in
      (match v with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-46s %d" id c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-46s %.6g" id g)
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "%-46s count=%d sum=%.6g mean=%.6g" id h.n h.sum
               (if h.n = 0 then 0.0 else h.sum /. float_of_int h.n)));
      Buffer.add_char buf '\n')
    s;
  Buffer.contents buf

let to_json (s : snapshot) =
  Json.List
    (List.map
       (fun ((name, labels), v) ->
         let base =
           [
             ("name", Json.String name);
             ( "labels",
               Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels) );
           ]
         in
         let rest =
           match v with
           | Counter c -> [ ("type", Json.String "counter"); ("value", Json.Int c) ]
           | Gauge g -> [ ("type", Json.String "gauge"); ("value", Json.Float g) ]
           | Histogram h ->
               [
                 ("type", Json.String "histogram");
                 ("lower", Json.Float h.lower);
                 ("growth", Json.Float h.growth);
                 ("count", Json.Int h.n);
                 ("sum", Json.Float h.sum);
                 ( "buckets",
                   Json.List
                     (Array.to_list (Array.map (fun c -> Json.Int c) h.counts))
                 );
               ]
         in
         Json.Obj (base @ rest))
       s)

let quantile value q =
  match value with
  | Histogram { lower; growth; n; counts; _ } when n > 0 ->
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let buckets = Array.length counts - 2 in
      let estimate i =
        if i = 0 then lower
        else if i > buckets then lower *. (growth ** float_of_int buckets)
        else lower *. (growth ** (float_of_int i -. 0.5))
      in
      let rec go i acc =
        if i >= Array.length counts then None
        else
          let acc = acc + counts.(i) in
          if acc >= target then Some (estimate i) else go (i + 1) acc
      in
      go 0 0
  | _ -> None
