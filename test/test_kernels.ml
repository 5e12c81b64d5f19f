(* Tests for the micro kernel and element-wise kernels. *)

open Sw_kernels

let check = Alcotest.check
let qtest = Helpers.qtest

let reference_gemm ~m ~n ~k ~alpha ~accumulate ~a ~b ~c0 =
  let c = Array.copy c0 in
  if not accumulate then Array.fill c 0 (m * n) 0.0;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref c.((i * n) + j) in
      for p = 0 to k - 1 do
        acc := !acc +. (alpha *. a.((i * k) + p) *. b.((p * n) + j))
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let random_array rng len = Array.init len (fun _ -> Random.State.float rng 2.0 -. 1.0)

let test_micro_identity () =
  (* A = I: C must equal alpha * B. *)
  let m = 4 and n = 4 and k = 4 in
  let a = Array.init (m * k) (fun idx -> if idx / k = idx mod k then 1.0 else 0.0) in
  let b = Array.init (k * n) (fun idx -> float_of_int idx) in
  let c = Array.make (m * n) 42.0 in
  Micro.dgemm_tile ~m ~n ~k ~alpha:2.0 ~accumulate:false ~a ~ao:0 ~b ~bo:0 ~c ~co:0;
  Helpers.check_array_close "2*B" (Array.map (fun x -> 2.0 *. x) b) c

let test_micro_accumulate () =
  let m = 2 and n = 2 and k = 2 in
  let a = [| 1.0; 0.0; 0.0; 1.0 |] in
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  let c = [| 10.0; 10.0; 10.0; 10.0 |] in
  Micro.dgemm_tile ~m ~n ~k ~alpha:1.0 ~accumulate:true ~a ~ao:0 ~b ~bo:0 ~c ~co:0;
  Helpers.check_array_close "C += A*B" [| 11.0; 12.0; 13.0; 14.0 |] c

let test_micro_offsets () =
  (* Operands embedded at non-zero offsets in larger arrays. *)
  let m = 2 and n = 3 and k = 2 in
  let pad = 5 in
  let rng = Random.State.make [| 7 |] in
  let a = random_array rng (pad + (m * k)) in
  let b = random_array rng (pad + (k * n)) in
  let c = Array.make (pad + (m * n)) 0.0 in
  Micro.dgemm_tile ~m ~n ~k ~alpha:1.5 ~accumulate:false ~a ~ao:pad ~b ~bo:pad ~c ~co:pad;
  let expect =
    reference_gemm ~m ~n ~k ~alpha:1.5 ~accumulate:false
      ~a:(Array.sub a pad (m * k))
      ~b:(Array.sub b pad (k * n))
      ~c0:(Array.make (m * n) 0.0)
  in
  Helpers.check_array_close "offset view" expect (Array.sub c pad (m * n));
  (* padding untouched *)
  Alcotest.(check bool) "prefix untouched" true (Array.for_all (fun x -> x = 0.0) (Array.sub c 0 pad))

let prop_micro_matches_reference =
  qtest ~count:100 "dgemm_tile matches the scalar reference"
    QCheck.(quad (int_range 1 8) (int_range 1 8) (int_range 1 8) (int_range 0 1000))
    (fun (m, n, k, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_array rng (m * k) in
      let b = random_array rng (k * n) in
      let c0 = random_array rng (m * n) in
      let alpha = Random.State.float rng 2.0 in
      let accumulate = Random.State.bool rng in
      let c = Array.copy c0 in
      Micro.dgemm_tile ~m ~n ~k ~alpha ~accumulate ~a ~ao:0 ~b ~bo:0 ~c ~co:0;
      let expect = reference_gemm ~m ~n ~k ~alpha ~accumulate ~a ~b ~c0 in
      Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-9 *. Float.max 1.0 (abs_float y)) c expect)

let test_flops () =
  check Alcotest.int "64x64x32" (2 * 64 * 64 * 32) (Micro.flops ~m:64 ~n:64 ~k:32)

let test_elementwise_kernels () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " known") true (Elementwise.known name))
    Elementwise.names;
  Alcotest.(check bool) "scale known" true (Elementwise.known "scale:0.25");
  Alcotest.(check bool) "garbage unknown" false (Elementwise.known "garbage");
  Helpers.check_close "relu(-1)" 0.0 (Elementwise.reference "relu" (-1.0));
  Helpers.check_close "relu(2)" 2.0 (Elementwise.reference "relu" 2.0);
  Helpers.check_close "scale" 0.75 (Elementwise.reference "scale:0.5" 1.5);
  Helpers.check_close "sigmoid(0)" 0.5 (Elementwise.reference "sigmoid" 0.0);
  Helpers.check_close "quant grid" (1.0 /. 64.0) (Elementwise.reference "quant" 0.01)

let test_elementwise_apply_range () =
  let data = Array.init 10 (fun i -> float_of_int i -. 5.0) in
  Elementwise.apply "relu" data ~off:2 ~len:5;
  (* only indices 2..6 clamped *)
  Helpers.check_array_close "partial apply"
    [| -5.0; -4.0; 0.0; 0.0; 0.0; 0.0; 1.0; 2.0; 3.0; 4.0 |]
    data

let prop_quant_idempotent =
  qtest "quantization is idempotent" (QCheck.float_range (-100.0) 100.0)
    (fun x ->
      let q = Elementwise.reference "quant" x in
      Elementwise.reference "quant" q = q)

let tests =
  [
    ("micro kernel identity", `Quick, test_micro_identity);
    ("micro kernel accumulate", `Quick, test_micro_accumulate);
    ("micro kernel offsets", `Quick, test_micro_offsets);
    ("flops count", `Quick, test_flops);
    ("element-wise registry", `Quick, test_elementwise_kernels);
    ("element-wise partial apply", `Quick, test_elementwise_apply_range);
    prop_micro_matches_reference;
    prop_quant_idempotent;
  ]

(* ------------------------------------------------------------------ *)
(* Kgen: automatically generated micro kernels                         *)
(* ------------------------------------------------------------------ *)

let kgen_ok ~m ~n ~k =
  match Kgen.generate ~m ~n ~k () with
  | Ok t -> t
  | Error e -> Alcotest.failf "Kgen.generate: %s" e

let test_kgen_vendor_shape () =
  let t = kgen_ok ~m:64 ~n:64 ~k:32 in
  (match Kgen.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "within 32 registers" true (Kgen.register_pressure t <= 32);
  let fma, mem = Kgen.counts t in
  check Alcotest.int "fma count" (64 * 64 * 32 / 8) fma;
  Alcotest.(check bool) "fma-bound" true (fma > mem);
  let eff = Kgen.estimated_efficiency t in
  Alcotest.(check bool)
    (Printf.sprintf "efficiency %.3f in [0.80, 0.99]" eff)
    true
    (eff > 0.80 && eff < 0.99);
  (* the hand-written vendor routine stays ahead of the generated one *)
  Alcotest.(check bool) "vendor kernel still better" true (eff < 0.98)

let test_kgen_rejects () =
  (match Kgen.generate ~m:4 ~n:7 ~k:4 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "n not multiple of lanes accepted");
  match Kgen.generate ~m:0 ~n:8 ~k:4 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "m=0 accepted"

let prop_kgen_matches_reference =
  qtest ~count:60 "generated kernels compute dgemm_tile"
    QCheck.(
      quad (int_range 1 13) (int_range 1 4) (int_range 1 9) (int_range 0 999))
    (fun (m, nv, k, seed) ->
      let n = 8 * nv in
      match Kgen.generate ~m ~n ~k () with
      | Error _ -> false
      | Ok t -> (
          match Kgen.validate t with
          | Error _ -> false
          | Ok () ->
              let rng = Random.State.make [| seed |] in
              let a = random_array rng (m * k) in
              let b = random_array rng (k * n) in
              let c0 = random_array rng (m * n) in
              let alpha = Random.State.float rng 2.0 in
              let accumulate = Random.State.bool rng in
              let c1 = Array.copy c0 and c2 = Array.copy c0 in
              Kgen.run t ~alpha ~accumulate ~a ~b ~c:c1;
              Micro.dgemm_tile ~m ~n ~k ~alpha ~accumulate ~a ~ao:0 ~b ~bo:0
                ~c:c2 ~co:0;
              Array.for_all2
                (fun x y -> abs_float (x -. y) <= 1e-9 *. Float.max 1.0 (abs_float y))
                c1 c2))

let prop_kgen_budget =
  qtest ~count:50 "register budget always respected"
    QCheck.(triple (int_range 1 20) (int_range 1 6) (int_range 8 32))
    (fun (m, nv, nregs) ->
      match Kgen.generate ~nregs ~m ~n:(8 * nv) ~k:3 () with
      | Error _ -> true
      | Ok t -> Kgen.register_pressure t <= nregs && Kgen.validate t = Ok ())

(* The cost model folded from the unrolled body: its instruction mix, and
   its register blocks, each of which opens with a run of C loads. *)
let folded_counts (t : Kgen.t) =
  let fma = ref 0 and mem = ref 0 and blocks = ref 0 and prev_ldc = ref false in
  Array.iter
    (fun i ->
      (match i with Kgen.Fma _ -> incr fma | _ -> incr mem);
      let ldc = match i with Kgen.Ldc _ -> true | _ -> false in
      if ldc && not !prev_ldc then incr blocks;
      prev_ldc := ldc)
    (Lazy.force t.Kgen.body);
  (!fma, !mem, !blocks)

let folded_efficiency (t : Kgen.t) =
  let fma, mem, blocks = folded_counts t in
  let cycles =
    float_of_int (max fma mem) +. (16.0 *. float_of_int blocks) +. 48.0
  in
  float_of_int (2 * t.Kgen.m * t.Kgen.n * t.Kgen.k)
  /. (cycles *. float_of_int (2 * t.Kgen.lanes))

(* [None] when the closed forms agree bit for bit with the body. *)
let closed_form_mismatch ~lanes ~nregs ~m ~n ~k =
  match Kgen.generate ~lanes ~nregs ~m ~n ~k () with
  | Error e -> Some e
  | Ok t ->
      let fma, mem, _ = folded_counts t in
      let eff = Kgen.estimated_efficiency t and folded = folded_efficiency t in
      if Kgen.counts t <> (fma, mem) then
        let cf, cm = Kgen.counts t in
        Some (Printf.sprintf "counts (%d, %d), body (%d, %d)" cf cm fma mem)
      else if Int64.bits_of_float eff <> Int64.bits_of_float folded then
        Some (Printf.sprintf "efficiency %h, body %h" eff folded)
      else None

let prop_kgen_closed_form =
  qtest ~count:60 "closed-form counts and efficiency match the body"
    QCheck.(
      pair
        (quad (oneofl [ 1; 2; 4; 8 ]) (int_range 3 40) (int_range 1 256)
           (int_range 1 256))
        (int_range 1 8))
    (fun ((lanes, nregs, m, k), nv) ->
      match closed_form_mismatch ~lanes ~nregs ~m ~n:(lanes * nv) ~k with
      | None -> true
      | Some e -> QCheck.Test.fail_report e)

(* The micro-kernel shapes the tuner prices on sw26010pro, at the widest
   vector that divides their n, as the tuner does. *)
let test_kgen_closed_form_tuner_shapes () =
  let spec = Sw_core.Spec.make ~m:2048 ~n:2048 ~k:2048 () in
  let shapes =
    List.sort_uniq compare
      (List.map
         (fun (c : Sw_tune.Space.candidate) -> c.Sw_tune.Space.mk)
         (Sw_tune.Space.enumerate ~config:Sw_arch.Config.sw26010pro ~spec))
  in
  check Alcotest.int "tuner shapes" 13 (List.length shapes);
  List.iter
    (fun (m, n, k) ->
      let lanes = List.find (fun l -> n mod l = 0) [ 8; 4; 2; 1 ] in
      match closed_form_mismatch ~lanes ~nregs:32 ~m ~n ~k with
      | None -> ()
      | Some e -> Alcotest.failf "%dx%dx%d, %d lanes: %s" m n k lanes e)
    shapes

let kgen_tests =
  [
    ("kgen vendor shape (64x64x32)", `Quick, test_kgen_vendor_shape);
    ("kgen rejects bad shapes", `Quick, test_kgen_rejects);
    prop_kgen_matches_reference;
    prop_kgen_budget;
    prop_kgen_closed_form;
    ( "kgen closed form on the sw26010pro tuner shapes",
      `Quick,
      test_kgen_closed_form_tuner_shapes );
  ]

let tests = tests @ kgen_tests
