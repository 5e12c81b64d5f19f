type kind =
  | Kernel
  | Spm_op
  | Dma of { bytes : int; put : bool }
  | Rma of { bytes : int; sender : bool }
  | Wait_reply of { reply : string; rma : bool }
  | Barrier

type event = { rid : int; cid : int; kind : kind; start : float; finish : float }

type t = { sink : (event -> unit) option; mutable evs : event list }

let create ?sink () = { sink; evs = [] }

let record t e =
  match t.sink with None -> t.evs <- e :: t.evs | Some f -> f e

let events t = List.rev t.evs

let instant e = e.finish <= e.start

let busy t ~rid ~cid ~kind =
  List.fold_left
    (fun acc e ->
      if e.rid = rid && e.cid = cid && kind e.kind then
        acc +. (e.finish -. e.start)
      else acc)
    0.0 t.evs

type utilization = {
  span : float;
  kernel_frac : float;
  blocked_frac : float;
  dma_bytes : int;
  rma_bytes : int;
}

let empty_utilization =
  { span = 0.0; kernel_frac = 0.0; blocked_frac = 0.0; dma_bytes = 0; rma_bytes = 0 }

let utilization t ~mesh:(rows, cols) =
  if t.evs = [] then empty_utilization
  else begin
  let lo = ref infinity and hi = ref neg_infinity in
  let dma_bytes = ref 0 and rma_bytes = ref 0 in
  List.iter
    (fun e ->
      lo := Float.min !lo e.start;
      hi := Float.max !hi e.finish;
      match e.kind with
      | Dma { bytes; _ } -> dma_bytes := !dma_bytes + bytes
      | Rma { bytes; sender = true } -> rma_bytes := !rma_bytes + bytes
      | Rma _ | Kernel | Spm_op | Wait_reply _ | Barrier -> ())
    t.evs;
  (* a trace of only instants has zero span; every frac guards against
     dividing by it and reports an all-zero utilization *)
  let span = if !hi > !lo then !hi -. !lo else 0.0 in
  let ncpe = float_of_int (rows * cols) in
  let frac kind =
    if span <= 0.0 then 0.0
    else
      let total = ref 0.0 in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          total := !total +. busy t ~rid:r ~cid:c ~kind
        done
      done;
      !total /. (span *. ncpe)
  in
  {
    span;
    kernel_frac = frac (function Kernel -> true | _ -> false);
    blocked_frac = frac (function Wait_reply _ | Barrier -> true | _ -> false);
    dma_bytes = !dma_bytes;
    rma_bytes = !rma_bytes;
  }
  end

let gantt t ~rid ~cid ~width =
  let evs = List.filter (fun e -> e.rid = rid && e.cid = cid) t.evs in
  match evs with
  | [] -> String.make width '.'
  | _ ->
      let lo = List.fold_left (fun a e -> Float.min a e.start) infinity evs in
      let hi = List.fold_left (fun a e -> Float.max a e.finish) neg_infinity evs in
      let span = Float.max (hi -. lo) 1e-12 in
      let lane = Bytes.make width '.' in
      let prio = function
        | Kernel -> (4, 'K')
        | Spm_op -> (3, 'E')
        | Rma _ -> (2, 'R')
        | Dma _ -> (2, 'D')
        | Wait_reply _ -> (1, 'w')
        | Barrier -> (1, 'b')
      in
      let cell_prio = Array.make width 0 in
      List.iter
        (fun e ->
          let p, ch = prio e.kind in
          let a =
            int_of_float (Float.of_int width *. (e.start -. lo) /. span)
          in
          let b =
            int_of_float (Float.of_int width *. (e.finish -. lo) /. span)
          in
          for i = max 0 a to min (width - 1) (max a b) do
            if p > cell_prio.(i) then begin
              cell_prio.(i) <- p;
              Bytes.set lane i ch
            end
          done)
        evs;
      Bytes.to_string lane

let summary t ~mesh =
  let u = utilization t ~mesh in
  Printf.sprintf
    "span %.3f ms | kernel busy %.1f%% | blocked %.1f%% | DMA %.2f MB | RMA \
     %.2f MB"
    (1000.0 *. u.span)
    (100.0 *. u.kernel_frac)
    (100.0 *. u.blocked_frac)
    (float_of_int u.dma_bytes /. 1048576.0)
    (float_of_int u.rma_bytes /. 1048576.0)
