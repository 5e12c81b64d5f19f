type kind = Read | Write

type t = { array : string; indices : Aff.t list; kind : kind }

let read array indices = { array; indices; kind = Read }
let write array indices = { array; indices; kind = Write }
let is_write a = a.kind = Write

let to_string a =
  Printf.sprintf "%s%s (%s)" a.array
    (String.concat "" (List.map (fun i -> "[" ^ Aff.to_string i ^ "]") a.indices))
    (match a.kind with Read -> "read" | Write -> "write")

let footprint_bounds ~domain ~context_dims a =
  List.mapi
    (fun pos idx ->
      let z = Printf.sprintf "__fp%d" pos in
      let t = Bset.add_dims domain [ z ] in
      let t = Bset.add_aff_eq t (Aff.sub (Aff.var z) idx) in
      let lbs, ubs = Bset.dim_bounds t ~dim:z ~using:context_dims in
      if lbs = [] || ubs = [] then
        invalid_arg
          (Printf.sprintf "Access.footprint_bounds: %s dim %d unbounded"
             a.array pos);
      (* Prune bounds that are rationally implied by another one; keep the
         rest (the caller takes max of lowers / min of uppers). *)
      let prune ~tighter affs =
        let rec go kept = function
          | [] -> List.rev kept
          | b :: rest ->
              let dominated =
                List.exists
                  (fun b' ->
                    (not (Aff.equal b b'))
                    && Bset.implies_aff_ineq t (tighter b' b))
                  (kept @ rest)
              in
              if dominated then go kept rest else go (b :: kept) rest
        in
        go [] affs
      in
      let lows =
        prune
          ~tighter:(fun b' b -> Aff.sub b' b) (* b' >= b: b' tighter lower *)
          (List.map (Bset.bound_to_aff t ~round:`Ceil) lbs)
      in
      let ups =
        prune
          ~tighter:(fun b' b -> Aff.sub b b') (* b' <= b: b' tighter upper *)
          (List.map (Bset.bound_to_aff t ~round:`Floor) ubs)
      in
      (lows, ups))
    a.indices
