(* Unit and property tests for the dense tensor kernels. *)

open Echo_tensor

let t2 = Tensor.of_list2
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))

let assert_tensor msg expected actual =
  if not (Tensor.approx_equal ~tol:1e-12 expected actual) then
    Alcotest.failf "%s: expected %s got %s" msg (Tensor.to_string expected)
      (Tensor.to_string actual)

(* Construction *)

let test_create_validates () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Tensor.create: 3 elements for shape [2x2]") (fun () ->
      ignore (Tensor.create [| 2; 2 |] [| 1.0; 2.0; 3.0 |]))

let test_fill_constructors () =
  check_float "zeros" 0.0 (Tensor.sum (Tensor.zeros [| 3; 3 |]));
  check_float "ones" 9.0 (Tensor.sum (Tensor.ones [| 3; 3 |]));
  check_float "full" 4.5 (Tensor.sum (Tensor.full [| 3 |] 1.5));
  check_float "scalar" 2.5 (Tensor.get1 (Tensor.scalar 2.5) 0)

let test_init_by_index () =
  let t = Tensor.init [| 2; 3 |] (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1))) in
  assert_tensor "init" (t2 [ [ 0.; 1.; 2. ]; [ 10.; 11.; 12. ] ]) t

let test_of_list2_ragged () =
  check_bool "ragged raises" true
    (try
       ignore (t2 [ [ 1.0 ]; [ 1.0; 2.0 ] ]);
       false
     with Invalid_argument _ -> true)

let test_get_set () =
  let t = Tensor.zeros [| 2; 2 |] in
  Tensor.set t [| 1; 0 |] 5.0;
  check_float "get" 5.0 (Tensor.get t [| 1; 0 |]);
  check_float "get1 linear" 5.0 (Tensor.get1 t 2)

let test_copy_is_deep () =
  let a = Tensor.zeros [| 2 |] in
  let b = Tensor.copy a in
  Tensor.set1 b 0 9.0;
  check_float "original untouched" 0.0 (Tensor.get1 a 0)

(* Elementwise *)

let test_binary_ops () =
  let a = t2 [ [ 1.; 2. ]; [ 3.; 4. ] ] and b = t2 [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  assert_tensor "add" (t2 [ [ 6.; 8. ]; [ 10.; 12. ] ]) (Tensor.add a b);
  assert_tensor "sub" (t2 [ [ -4.; -4. ]; [ -4.; -4. ] ]) (Tensor.sub a b);
  assert_tensor "mul" (t2 [ [ 5.; 12. ]; [ 21.; 32. ] ]) (Tensor.mul a b);
  assert_tensor "div" (t2 [ [ 0.2; 2. /. 6. ]; [ 3. /. 7.; 0.5 ] ]) (Tensor.div a b)

let test_binary_shape_mismatch () =
  check_bool "raises" true
    (try
       ignore (Tensor.add (Tensor.zeros [| 2 |]) (Tensor.zeros [| 3 |]));
       false
     with Invalid_argument _ -> true)

let test_unary_ops () =
  let x = Tensor.of_list1 [ -1.0; 0.0; 2.0 ] in
  assert_tensor "neg" (Tensor.of_list1 [ 1.0; 0.0; -2.0 ]) (Tensor.neg x);
  assert_tensor "relu" (Tensor.of_list1 [ 0.0; 0.0; 2.0 ]) (Tensor.relu x);
  assert_tensor "sq" (Tensor.of_list1 [ 1.0; 0.0; 4.0 ]) (Tensor.sq x);
  assert_tensor "sign" (Tensor.of_list1 [ -1.0; 0.0; 1.0 ]) (Tensor.sign x);
  assert_tensor "scale" (Tensor.of_list1 [ -2.0; 0.0; 4.0 ]) (Tensor.scale 2.0 x);
  assert_tensor "add_scalar" (Tensor.of_list1 [ 0.0; 1.0; 3.0 ]) (Tensor.add_scalar 1.0 x)

let test_sigmoid_tanh () =
  let x = Tensor.of_list1 [ 0.0 ] in
  check_float "sigmoid(0)" 0.5 (Tensor.get1 (Tensor.sigmoid x) 0);
  check_float "tanh(0)" 0.0 (Tensor.get1 (Tensor.tanh_ x) 0);
  let big = Tensor.of_list1 [ 30.0 ] in
  check_bool "sigmoid saturates" true (Tensor.get1 (Tensor.sigmoid big) 0 > 0.999999)

(* Matmul *)

let test_matmul_basic () =
  let a = t2 [ [ 1.; 2. ]; [ 3.; 4. ] ] and b = t2 [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  assert_tensor "ab" (t2 [ [ 19.; 22. ]; [ 43.; 50. ] ]) (Tensor.matmul a b)

let test_matmul_transposes () =
  let a = t2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] (* 2x3 *) in
  let b = t2 [ [ 1.; 0. ]; [ 0.; 1. ]; [ 1.; 1. ] ] (* 3x2 *) in
  let plain = Tensor.matmul a b in
  assert_tensor "trans_a" plain (Tensor.matmul ~trans_a:true (Tensor.transpose2d a) b);
  assert_tensor "trans_b" plain (Tensor.matmul ~trans_b:true a (Tensor.transpose2d b));
  assert_tensor "both" plain
    (Tensor.matmul ~trans_a:true ~trans_b:true (Tensor.transpose2d a)
       (Tensor.transpose2d b))

let test_matmul_identity () =
  let rng = Rng.create 1 in
  let a = Tensor.uniform rng [| 4; 4 |] ~lo:(-1.0) ~hi:1.0 in
  let id = Tensor.init [| 4; 4 |] (fun i -> if i.(0) = i.(1) then 1.0 else 0.0) in
  assert_tensor "aI = a" a (Tensor.matmul a id);
  assert_tensor "Ia = a" a (Tensor.matmul id a)

let test_matmul_inner_mismatch () =
  check_bool "raises" true
    (try
       ignore (Tensor.matmul (Tensor.zeros [| 2; 3 |]) (Tensor.zeros [| 2; 3 |]));
       false
     with Invalid_argument _ -> true)

(* Bitwise tensor equality: [Tensor.equal]'s structural compare conflates
   0.0 with -0.0, which is exactly where a kernel that mishandles the
   a(i,l) = 0 skip would hide. *)
let bits_equal a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  &&
  let ok = ref true in
  for i = 0 to Tensor.numel a - 1 do
    if
      Int64.bits_of_float (Tensor.get1 a i)
      <> Int64.bits_of_float (Tensor.get1 b i)
    then ok := false
  done;
  !ok

(* Independent scalar oracle for the documented matmul semantics: each
   output element accumulates in ascending l, skipping terms whose a-side
   factor is exactly 0.0. Every kernel path must match this bit for bit.
   Each step adds as [product +. acc], the operand order every kernel
   compiles to: when a NaN product meets a different NaN already in the
   accumulator, the product's payload is the one kept. *)
let matmul_oracle ~trans_a ~trans_b ~m ~n ~k a b =
  let a = Tensor.to_array a and b = Tensor.to_array b in
  Tensor.init [| m; n |] (fun idx ->
      let i = idx.(0) and j = idx.(1) in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        let x = if trans_a then a.((l * m) + i) else a.((i * k) + l) in
        if x <> 0.0 then
          let bv = if trans_b then b.((j * k) + l) else b.((l * n) + j) in
          acc := (x *. bv) +. !acc
      done;
      !acc)

(* Uniform matrix with ~25% exact zeros so the skip path (and its
   interaction with signed zeros downstream) is actually exercised. *)
let sparse_uniform rng shape =
  let t = Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0 in
  for i = 0 to Tensor.numel t - 1 do
    if Rng.float rng < 0.25 then Tensor.set1 t i 0.0
  done;
  t

(* [t] with about 10% of its cells overwritten by draws from [values]. *)
let poison rng values t =
  let t = Tensor.copy t in
  for i = 0 to Tensor.numel t - 1 do
    if Rng.float rng < 0.1 then
      Tensor.set1 t i values.(Rng.int rng (Array.length values))
  done;
  t

(* Sweep sizes and operand kinds, sequential vs a 2-domain pool. The pool
   is oversubscribed past the hardware cap with the work gate open, so the
   fan-out + work-stealing path genuinely runs even on one core. Every
   combination must be bitwise equal to the oracle. [dst] starts as NaN so an unwritten element can never pass.
   The sweep runs once on the dispatched kernel build and once on the
   portable 2-lane build ([Tensor.For_testing.with_portable_gemm]), so a
   host with AVX2 still checks what other hosts run.

   Sizes: small ones in all four transpose variants; m and n = 1..7 mod 8
   on both sides of m < n with k = 1 and k = 5 (the edges of the 4x8 and
   4x4 tiles, and the choice of vectorised axis under [trans_b]; a zero
   dimension is not a valid shape); and the four GEMM shapes of an NMT
   training step (hidden 64, batch 16, vocabulary 500) in the orientation
   the step runs them.

   Four operand kinds pin the semantics the kernel relies on:
   finite sparse operands (where it adds the zero-[a] terms instead of
   skipping them); infinities and NaNs in B where A has zeros (a skipped
   0 * inf must not turn into a NaN); NaNs in A (never skipped, so they
   must propagate); and two distinct NaN payloads in A, where a kernel
   that commutes [product + acc] keeps the wrong payload.

   One poisoned row: dense operands with a single inf in B under a single
   zero in A, so the kernel stores exactly one NaN, in one chunk's rows,
   and only that chunk recomputes it.

   Last, an FMA-contraction canary over a full 8x8 tile: every output is
   (-1 * 1) + 0 and then (1 + 2^-30) * (1 - 2^-30) added to that. Unfused
   the product rounds to 1 and the output is +0; a kernel built with
   contracted multiply-adds gives -2^-60. *)
let matmul_blocked_sweep () =
  let every = [ (false, false); (true, false); (false, true); (true, true) ] in
  let edges =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun k -> [ (8 + r, 24 - r, k); (24 - r, 8 + r, k) ])
          [ 1; 5 ])
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let cases =
    List.map
      (fun s -> (s, every))
      ([
         (1, 1, 1); (3, 5, 2); (8, 8, 8); (17, 33, 9); (40, 40, 40);
         (64, 32, 48); (5, 10, 3); (10, 5, 3); (7, 15, 6); (15, 7, 6);
         (13, 14, 9); (14, 13, 9);
       ]
      @ edges)
    @ [
        ((16, 256, 64), [ (false, true) ]);
        ((16, 64, 256), [ (false, false) ]);
        ((256, 64, 16), [ (true, false) ]);
        ((320, 500, 64), [ (false, true) ]);
      ]
  in
  let pool =
    Parallel.create ~domains:2 ~oversubscribe:true ~min_fanout_work:0 ()
  in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let rng = Rng.create 11 in
  let check ~trans_a ~trans_b (m, n, k) kind a b =
    let expect = matmul_oracle ~trans_a ~trans_b ~m ~n ~k a b in
    List.iter
      (fun (rt_name, runtime) ->
        let dst = Tensor.full [| m; n |] Float.nan in
        Tensor.Into.matmul ~runtime ~trans_a ~trans_b a b ~dst;
        if not (bits_equal expect dst) then
          Alcotest.failf
            "matmul %dx%dx%d ta=%b tb=%b runtime=%s operands=%s gemm=%s \
             differs from oracle"
            m n k trans_a trans_b rt_name kind (Tensor.gemm_isa ()))
      [ ("seq", Parallel.sequential); ("pool2", pool) ];
    if not (bits_equal expect (Tensor.matmul ~trans_a ~trans_b a b)) then
      Alcotest.failf
        "allocating matmul %dx%dx%d ta=%b tb=%b operands=%s gemm=%s differs \
         from oracle"
        m n k trans_a trans_b kind (Tensor.gemm_isa ());
    expect
  in
  let payloads =
    [| Int64.float_of_bits 0x7FF8000000000001L;
       Int64.float_of_bits 0xFFF8000000000ABCL |]
  in
  List.iter
    (fun (((m, n, k) as size), orientations) ->
      List.iter
        (fun (trans_a, trans_b) ->
          let a = sparse_uniform rng (if trans_a then [| k; m |] else [| m; k |]) in
          let b = sparse_uniform rng (if trans_b then [| n; k |] else [| k; n |]) in
          List.iter
            (fun (kind, a, b) -> ignore (check ~trans_a ~trans_b size kind a b))
            [
              ("finite", a, b);
              ( "inf/nan in B",
                a,
                poison rng [| Float.infinity; Float.neg_infinity; Float.nan |] b );
              ("nan in A", poison rng [| Float.nan |] a, b);
              ("two nan payloads in A", poison rng payloads a, b);
            ])
        orientations)
    cases;
  (* The poisoned row: a(i0, l0) = 0 and b(l0, j0) = inf, every other
     element nonzero and finite. Output (i0, j0) skips the 0 * inf and is
     finite; every other output of column j0 is +-inf, not NaN. The
     fix-up allocates nothing: the poisoned call allocates exactly what
     the clean one does. *)
  let m, n, k = (37, 41, 9) and i0, j0, l0 = (29, 6, 4) in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (trans_a, trans_b) ->
      let dense shape = Tensor.uniform rng shape ~lo:0.5 ~hi:1.0 in
      let a = dense (if trans_a then [| k; m |] else [| m; k |]) in
      let b = dense (if trans_b then [| n; k |] else [| k; n |]) in
      let clean_a = Tensor.copy a and clean_b = Tensor.copy b in
      Tensor.set a (if trans_a then [| l0; i0 |] else [| i0; l0 |]) 0.0;
      Tensor.set b (if trans_b then [| j0; l0 |] else [| l0; j0 |])
        Float.infinity;
      let expect = check ~trans_a ~trans_b (m, n, k) "poisoned row" a b in
      for i = 0 to m - 1 do
        let x = Tensor.get expect [| i; j0 |] in
        check_bool "one NaN-prone output" (i = i0) (Float.is_finite x)
      done;
      let dst = Tensor.zeros [| m; n |] in
      let run a b () = Tensor.Into.matmul ~trans_a ~trans_b a b ~dst in
      let clean = words (run clean_a clean_b) in
      check_float "fix-up allocates nothing" clean (words (run a b)))
    every;
  let e = Float.ldexp 1.0 (-30) in
  List.iter
    (fun (trans_a, trans_b) ->
      (* [l] is axis 1 of A unless transposed, axis 0 of B unless
         transposed *)
      let a =
        Tensor.init (if trans_a then [| 2; 8 |] else [| 8; 2 |]) (fun idx ->
            if idx.(if trans_a then 0 else 1) = 0 then -1.0 else 1.0 +. e)
      in
      let b =
        Tensor.init (if trans_b then [| 8; 2 |] else [| 2; 8 |]) (fun idx ->
            if idx.(if trans_b then 1 else 0) = 0 then 1.0 else 1.0 -. e)
      in
      let expect = check ~trans_a ~trans_b (8, 8, 2) "fma canary" a b in
      check_bool "canary outputs are +0" true
        (bits_equal expect (Tensor.zeros [| 8; 8 |])))
    every

let test_matmul_blocked_sweep () = matmul_blocked_sweep ()

let test_matmul_blocked_sweep_portable () =
  let dispatched = Tensor.gemm_isa () in
  Tensor.For_testing.with_portable_gemm (fun () ->
      check_bool "portable build selected" true
        (List.mem (Tensor.gemm_isa ()) [ "sse2"; "neon"; "generic" ]);
      matmul_blocked_sweep ());
  check_bool "dispatched build restored" true (Tensor.gemm_isa () = dispatched)

let test_add_bias () =
  let m = t2 [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = Tensor.of_list1 [ 10.; 20. ] in
  assert_tensor "rows shifted" (t2 [ [ 11.; 22. ]; [ 13.; 24. ] ]) (Tensor.add_bias m b)

let test_outer () =
  let a = Tensor.of_list1 [ 1.; 2. ] and b = Tensor.of_list1 [ 3.; 4.; 5. ] in
  assert_tensor "outer" (t2 [ [ 3.; 4.; 5. ]; [ 6.; 8.; 10. ] ]) (Tensor.outer a b)

(* Shape manipulation *)

let test_reshape () =
  let t = Tensor.of_list1 [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let m = Tensor.reshape t [| 2; 3 |] in
  check_float "row-major layout" 4.0 (Tensor.get m [| 1; 0 |]);
  check_bool "bad reshape raises" true
    (try
       ignore (Tensor.reshape t [| 4; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_transpose2d () =
  let t = t2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  assert_tensor "transpose" (t2 [ [ 1.; 4. ]; [ 2.; 5. ]; [ 3.; 6. ] ]) (Tensor.transpose2d t)

let test_slice_axis0 () =
  let t = t2 [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  assert_tensor "rows 1-2" (t2 [ [ 3.; 4. ]; [ 5.; 6. ] ]) (Tensor.slice ~axis:0 ~lo:1 ~hi:3 t)

let test_slice_axis1 () =
  let t = t2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  assert_tensor "col 1" (t2 [ [ 2. ]; [ 5. ] ]) (Tensor.slice ~axis:1 ~lo:1 ~hi:2 t)

let test_concat_axis0 () =
  let a = t2 [ [ 1.; 2. ] ] and b = t2 [ [ 3.; 4. ]; [ 5.; 6. ] ] in
  assert_tensor "stack" (t2 [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ]) (Tensor.concat ~axis:0 [ a; b ])

let test_concat_axis1 () =
  let a = t2 [ [ 1. ]; [ 3. ] ] and b = t2 [ [ 2. ]; [ 4. ] ] in
  assert_tensor "side by side" (t2 [ [ 1.; 2. ]; [ 3.; 4. ] ]) (Tensor.concat ~axis:1 [ a; b ])

let test_pad_slice () =
  let t = t2 [ [ 7.; 8. ] ] in
  assert_tensor "embedded"
    (t2 [ [ 0.; 0. ]; [ 7.; 8. ]; [ 0.; 0. ] ])
    (Tensor.pad_slice ~axis:0 ~lo:1 ~full:3 t)

let test_slice_concat_roundtrip () =
  let rng = Rng.create 2 in
  let t = Tensor.uniform rng [| 4; 6 |] ~lo:(-1.0) ~hi:1.0 in
  let parts =
    [ Tensor.slice ~axis:1 ~lo:0 ~hi:2 t;
      Tensor.slice ~axis:1 ~lo:2 ~hi:5 t;
      Tensor.slice ~axis:1 ~lo:5 ~hi:6 t ]
  in
  assert_tensor "roundtrip" t (Tensor.concat ~axis:1 parts)

(* Reductions *)

let test_reduce_sum () =
  let t = t2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  assert_tensor "axis0" (Tensor.of_list1 [ 5.; 7.; 9. ])
    (Tensor.reduce_sum ~axis:0 ~keepdims:false t);
  assert_tensor "axis1 keep" (t2 [ [ 6. ]; [ 15. ] ])
    (Tensor.reduce_sum ~axis:1 ~keepdims:true t);
  check_float "full sum" 21.0 (Tensor.sum t);
  check_float "mean" 3.5 (Tensor.mean t);
  check_float "max" 6.0 (Tensor.max_elt t)

let test_reduce_mean () =
  let t = t2 [ [ 2.; 4. ]; [ 6.; 8. ] ] in
  assert_tensor "axis1" (Tensor.of_list1 [ 3.; 7. ])
    (Tensor.reduce_mean ~axis:1 ~keepdims:false t)

let test_broadcast_axis () =
  let t = t2 [ [ 1.; 2. ] ] in
  assert_tensor "repeat rows" (t2 [ [ 1.; 2. ]; [ 1.; 2. ]; [ 1.; 2. ] ])
    (Tensor.broadcast_axis ~axis:0 ~n:3 t);
  check_bool "axis dim must be 1" true
    (try
       ignore (Tensor.broadcast_axis ~axis:0 ~n:3 (t2 [ [ 1. ]; [ 2. ] ]));
       false
     with Invalid_argument _ -> true)

let test_frobenius () =
  check_float "3-4-5" 5.0 (Tensor.frobenius (Tensor.of_list1 [ 3.0; 4.0 ]))

(* NN kernels *)

let test_softmax_rows () =
  let t = t2 [ [ 1.; 1.; 1. ]; [ 0.; 100.; 0. ] ] in
  let s = Tensor.softmax t in
  check_float "uniform row" (1.0 /. 3.0) (Tensor.get s [| 0; 0 |]);
  check_bool "peaked row" true (Tensor.get s [| 1; 1 |] > 0.999999);
  check_float "row sums" 1.0 (Tensor.sum (Tensor.slice ~axis:0 ~lo:0 ~hi:1 s))

let test_log_softmax_consistent () =
  let rng = Rng.create 3 in
  let t = Tensor.uniform rng [| 3; 5 |] ~lo:(-4.0) ~hi:4.0 in
  assert_tensor "log softmax = log(softmax)" (Tensor.log_ (Tensor.softmax t))
    (Tensor.log_softmax t)

let test_cross_entropy_manual () =
  let logits = t2 [ [ 0.; 0. ]; [ 0.; 0. ] ] in
  let labels = Tensor.of_list1 [ 0.; 1. ] in
  check_float "uniform logits -> log 2" (log 2.0) (Tensor.cross_entropy ~logits ~labels)

let test_cross_entropy_grad_rows_sum_zero () =
  let rng = Rng.create 4 in
  let logits = Tensor.uniform rng [| 4; 6 |] ~lo:(-2.0) ~hi:2.0 in
  let labels = Tensor.of_list1 [ 0.; 5.; 3.; 2. ] in
  let g = Tensor.cross_entropy_grad ~logits ~labels in
  for r = 0 to 3 do
    check_float "row sums to 0" 0.0 (Tensor.sum (Tensor.slice ~axis:0 ~lo:r ~hi:(r + 1) g))
  done

let test_cross_entropy_label_out_of_range () =
  check_bool "raises" true
    (try
       ignore
         (Tensor.cross_entropy
            ~logits:(Tensor.zeros [| 1; 2 |])
            ~labels:(Tensor.of_list1 [ 5.0 ]));
       false
     with Invalid_argument _ -> true)

let test_dropout_mask () =
  let m = Tensor.dropout_mask ~seed:7 ~p:0.5 [| 1000 |] in
  let m' = Tensor.dropout_mask ~seed:7 ~p:0.5 [| 1000 |] in
  check_bool "deterministic" true (Tensor.equal m m');
  let zeros = ref 0 in
  for i = 0 to 999 do
    let v = Tensor.get1 m i in
    check_bool "0 or 1/(1-p)" true (v = 0.0 || v = 2.0);
    if v = 0.0 then incr zeros
  done;
  check_bool "roughly half dropped" true (!zeros > 400 && !zeros < 600);
  check_bool "p=1 invalid" true
    (try
       ignore (Tensor.dropout_mask ~seed:1 ~p:1.0 [| 2 |]);
       false
     with Invalid_argument _ -> true)

let test_embedding () =
  let table = t2 [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  let ids = Tensor.of_list1 [ 2.; 0. ] in
  assert_tensor "gathered" (t2 [ [ 5.; 6. ]; [ 1.; 2. ] ]) (Tensor.embedding ~table ~ids)

let test_embedding_grad_scatter_adds () =
  let ids = Tensor.of_list1 [ 1.; 1.; 0. ] in
  let grad_out = t2 [ [ 1.; 1. ]; [ 2.; 2. ]; [ 5.; 5. ] ] in
  assert_tensor "repeated ids accumulate"
    (t2 [ [ 5.; 5. ]; [ 3.; 3. ]; [ 0.; 0. ] ])
    (Tensor.embedding_grad ~table_shape:[| 3; 2 |] ~ids ~grad_out)

let test_conv2d_hand () =
  (* 1x1x3x3 input, 1x1x2x2 all-ones kernel, stride 1, no padding. *)
  let input =
    Tensor.create [| 1; 1; 3; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |]
  in
  let kernel = Tensor.ones [| 1; 1; 2; 2 |] in
  let out = Tensor.conv2d ~stride:1 ~pad:0 ~input ~kernel in
  assert_tensor "windows summed"
    (Tensor.create [| 1; 1; 2; 2 |] [| 12.; 16.; 24.; 28. |])
    out

let test_conv2d_stride_pad () =
  let input = Tensor.ones [| 1; 1; 4; 4 |] in
  let kernel = Tensor.ones [| 1; 1; 3; 3 |] in
  let out = Tensor.conv2d ~stride:2 ~pad:1 ~input ~kernel in
  Alcotest.(check (list int))
    "output dims" [ 1; 1; 2; 2 ]
    (Array.to_list (Tensor.shape out));
  (* Corner window covers 2x2 ones. *)
  check_float "corner" 4.0 (Tensor.get out [| 0; 0; 0; 0 |])

let test_conv2d_channel_mismatch () =
  check_bool "raises" true
    (try
       ignore
         (Tensor.conv2d ~stride:1 ~pad:0 ~input:(Tensor.ones [| 1; 2; 3; 3 |])
            ~kernel:(Tensor.ones [| 1; 1; 2; 2 |]));
       false
     with Invalid_argument _ -> true)

(* The multi-index convolution loops the flat-index kernels replaced, kept
   verbatim as the reference they must match bit for bit. *)
let naive_conv2d ~stride ~pad ~input ~kernel =
  let shape = Tensor.shape and get = Tensor.get and set = Tensor.set in
  let b = (shape input).(0) and cin = (shape input).(1) in
  let h = (shape input).(2) and w = (shape input).(3) in
  let cout = (shape kernel).(0) in
  let kh = (shape kernel).(2) and kw = (shape kernel).(3) in
  let oh = ((h + (2 * pad) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad) - kw) / stride) + 1 in
  let out = Tensor.zeros [| b; cout; oh; ow |] in
  for n = 0 to b - 1 do
    for co = 0 to cout - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref 0.0 in
          for ci = 0 to cin - 1 do
            for ky = 0 to kh - 1 do
              let iy = (oy * stride) + ky - pad in
              if iy >= 0 && iy < h then
                for kx = 0 to kw - 1 do
                  let ix = (ox * stride) + kx - pad in
                  if ix >= 0 && ix < w then
                    acc :=
                      !acc
                      +. get input [| n; ci; iy; ix |] *. get kernel [| co; ci; ky; kx |]
                done
            done
          done;
          set out [| n; co; oy; ox |] !acc
        done
      done
    done
  done;
  out

let naive_conv2d_grad_input ~stride ~pad ~input_shape ~kernel ~grad_out =
  let shape = Tensor.shape and get = Tensor.get and set = Tensor.set in
  let b = input_shape.(0) and cin = input_shape.(1) in
  let h = input_shape.(2) and w = input_shape.(3) in
  let cout = (shape kernel).(0) in
  let kh = (shape kernel).(2) and kw = (shape kernel).(3) in
  let oh = (shape grad_out).(2) and ow = (shape grad_out).(3) in
  let out = Tensor.zeros input_shape in
  for n = 0 to b - 1 do
    for co = 0 to cout - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let g = get grad_out [| n; co; oy; ox |] in
          if g <> 0.0 then
            for ci = 0 to cin - 1 do
              for ky = 0 to kh - 1 do
                let iy = (oy * stride) + ky - pad in
                if iy >= 0 && iy < h then
                  for kx = 0 to kw - 1 do
                    let ix = (ox * stride) + kx - pad in
                    if ix >= 0 && ix < w then
                      set out [| n; ci; iy; ix |]
                        (get out [| n; ci; iy; ix |]
                        +. (g *. get kernel [| co; ci; ky; kx |]))
                  done
              done
            done
        done
      done
    done
  done;
  out

let naive_conv2d_grad_kernel ~stride ~pad ~input ~kernel_shape ~grad_out =
  let shape = Tensor.shape and get = Tensor.get and set = Tensor.set in
  let b = (shape input).(0) and cin = (shape input).(1) in
  let h = (shape input).(2) and w = (shape input).(3) in
  let cout = kernel_shape.(0) in
  let kh = kernel_shape.(2) and kw = kernel_shape.(3) in
  let oh = (shape grad_out).(2) and ow = (shape grad_out).(3) in
  let out = Tensor.zeros kernel_shape in
  for n = 0 to b - 1 do
    for co = 0 to cout - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let g = get grad_out [| n; co; oy; ox |] in
          if g <> 0.0 then
            for ci = 0 to cin - 1 do
              for ky = 0 to kh - 1 do
                let iy = (oy * stride) + ky - pad in
                if iy >= 0 && iy < h then
                  for kx = 0 to kw - 1 do
                    let ix = (ox * stride) + kx - pad in
                    if ix >= 0 && ix < w then
                      set out [| co; ci; ky; kx |]
                        (get out [| co; ci; ky; kx |]
                        +. (g *. get input [| n; ci; iy; ix |]))
                  done
              done
            done
        done
      done
    done
  done;
  out

(* Raw bit equality: [Tensor.equal] would let 0.0 stand for -0.0. *)
let same_bits a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (Tensor.to_array a) (Tensor.to_array b)

(* The destination-passing convolution kernels and their allocating
   wrappers against the naive loops, bit for bit, over random geometry.
   [grad_out] carries exact zeros so the skip path runs, and every [dst]
   starts as NaN, so a kernel that reads a cell before writing it, or skips
   the zero fill, shows up as a NaN. *)
let prop_conv_kernels_match_naive =
  QCheck.Test.make ~name:"conv kernels == naive loops" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pick lo hi = lo + Rng.int rng (hi - lo + 1) in
      let b = pick 1 2 and cin = pick 1 3 and cout = pick 1 3 in
      let stride = pick 1 2 and pad = pick 0 2 in
      let kh = pick 1 3 and kw = pick 1 3 in
      let h = pick (max 1 (kh - (2 * pad))) 7 in
      let w = pick (max 1 (kw - (2 * pad))) 7 in
      let input = Tensor.uniform rng [| b; cin; h; w |] ~lo:(-2.0) ~hi:2.0 in
      let kernel =
        Tensor.uniform rng [| cout; cin; kh; kw |] ~lo:(-2.0) ~hi:2.0
      in
      let expect = naive_conv2d ~stride ~pad ~input ~kernel in
      let out_shape = Tensor.shape expect in
      let grad_out =
        Tensor.init out_shape (fun _ ->
            if Rng.int rng 3 = 0 then 0.0 else Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
      in
      let input_shape = Tensor.shape input in
      let kernel_shape = Tensor.shape kernel in
      let nan_dst shape = Tensor.full shape Float.nan in
      let fwd = nan_dst out_shape in
      Tensor.Into.conv2d ~stride ~pad ~input ~kernel ~dst:fwd;
      let gi = nan_dst input_shape in
      Tensor.Into.conv2d_grad_input ~stride ~pad ~kernel ~grad_out ~dst:gi;
      let gk = nan_dst kernel_shape in
      Tensor.Into.conv2d_grad_kernel ~stride ~pad ~input ~grad_out ~dst:gk;
      let expect_gi =
        naive_conv2d_grad_input ~stride ~pad ~input_shape ~kernel ~grad_out
      in
      let expect_gk =
        naive_conv2d_grad_kernel ~stride ~pad ~input ~kernel_shape ~grad_out
      in
      same_bits expect fwd
      && same_bits expect (Tensor.conv2d ~stride ~pad ~input ~kernel)
      && same_bits expect_gi gi
      && same_bits expect_gi
           (Tensor.conv2d_grad_input ~stride ~pad ~input_shape ~kernel
              ~grad_out)
      && same_bits expect_gk gk
      && same_bits expect_gk
           (Tensor.conv2d_grad_kernel ~stride ~pad ~input ~kernel_shape
              ~grad_out))

let test_equal_and_diff () =
  let a = Tensor.of_list1 [ 1.0; 2.0 ] in
  check_bool "equal" true (Tensor.equal a (Tensor.copy a));
  check_float "max diff" 0.5 (Tensor.max_abs_diff a (Tensor.of_list1 [ 1.5; 2.0 ]));
  check_bool "shape mismatch -> inf" true
    (Tensor.max_abs_diff a (Tensor.zeros [| 3 |]) = infinity)

(* Properties *)

let tensor_pair_gen =
  QCheck.make
    ~print:(fun (a, b) -> Tensor.to_string a ^ " / " ^ Tensor.to_string b)
    QCheck.Gen.(
      let* rows = int_range 1 4 and* cols = int_range 1 4 in
      let* seed = int_range 0 10_000 in
      let rng = Rng.create seed in
      return
        ( Tensor.uniform rng [| rows; cols |] ~lo:(-5.0) ~hi:5.0,
          Tensor.uniform rng [| rows; cols |] ~lo:(-5.0) ~hi:5.0 ))

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:100 tensor_pair_gen (fun (a, b) ->
    Tensor.approx_equal (Tensor.add a b) (Tensor.add b a))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:100 tensor_pair_gen
    (fun (a, _) -> Tensor.equal a (Tensor.transpose2d (Tensor.transpose2d a)))

let prop_softmax_rows_sum_to_one =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:100 tensor_pair_gen
    (fun (a, _) ->
      let s = Tensor.softmax a in
      let rows = (Tensor.shape s).(0) in
      let ok = ref true in
      for r = 0 to rows - 1 do
        let row_sum = Tensor.sum (Tensor.slice ~axis:0 ~lo:r ~hi:(r + 1) s) in
        if Float.abs (row_sum -. 1.0) > 1e-9 then ok := false
      done;
      !ok)

let prop_matmul_distributes =
  QCheck.Test.make ~name:"A(B+C) = AB + AC" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = Tensor.uniform rng [| 3; 4 |] ~lo:(-2.0) ~hi:2.0 in
      let b = Tensor.uniform rng [| 4; 2 |] ~lo:(-2.0) ~hi:2.0 in
      let c = Tensor.uniform rng [| 4; 2 |] ~lo:(-2.0) ~hi:2.0 in
      Tensor.approx_equal ~tol:1e-9
        (Tensor.matmul a (Tensor.add b c))
        (Tensor.add (Tensor.matmul a b) (Tensor.matmul a c)))

let prop_pad_slice_adjoint =
  (* <pad(u), v> = <u, slice(v)>: PadSlice and Slice are adjoint maps, the
     property the autodiff rules rely on. *)
  QCheck.Test.make ~name:"pad_slice is adjoint to slice" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let u = Tensor.uniform rng [| 2; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let v = Tensor.uniform rng [| 5; 3 |] ~lo:(-1.0) ~hi:1.0 in
      let lhs = Tensor.sum (Tensor.mul (Tensor.pad_slice ~axis:0 ~lo:1 ~full:5 u) v) in
      let rhs = Tensor.sum (Tensor.mul u (Tensor.slice ~axis:0 ~lo:1 ~hi:3 v)) in
      Float.abs (lhs -. rhs) < 1e-9)

let prop_reduce_sum_total =
  QCheck.Test.make ~name:"reduce_sum preserves total" ~count:100 tensor_pair_gen
    (fun (a, _) ->
      Float.abs (Tensor.sum (Tensor.reduce_sum ~axis:0 ~keepdims:false a) -. Tensor.sum a)
      < 1e-9)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "tensor.construct",
      [
        t "create validates" test_create_validates;
        t "fill constructors" test_fill_constructors;
        t "init by index" test_init_by_index;
        t "of_list2 ragged" test_of_list2_ragged;
        t "get/set" test_get_set;
        t "copy is deep" test_copy_is_deep;
      ] );
    ( "tensor.elementwise",
      [
        t "binary ops" test_binary_ops;
        t "shape mismatch" test_binary_shape_mismatch;
        t "unary ops" test_unary_ops;
        t "sigmoid/tanh" test_sigmoid_tanh;
        QCheck_alcotest.to_alcotest prop_add_commutes;
      ] );
    ( "tensor.linalg",
      [
        t "matmul basic" test_matmul_basic;
        t "matmul transposes" test_matmul_transposes;
        t "matmul identity" test_matmul_identity;
        t "matmul mismatch" test_matmul_inner_mismatch;
        t "matmul blocked/parallel sweep" test_matmul_blocked_sweep;
        t "matmul blocked/parallel sweep, portable kernel"
          test_matmul_blocked_sweep_portable;
        t "add_bias" test_add_bias;
        t "outer" test_outer;
        QCheck_alcotest.to_alcotest prop_matmul_distributes;
      ] );
    ( "tensor.shape_ops",
      [
        t "reshape" test_reshape;
        t "transpose2d" test_transpose2d;
        t "slice axis0" test_slice_axis0;
        t "slice axis1" test_slice_axis1;
        t "concat axis0" test_concat_axis0;
        t "concat axis1" test_concat_axis1;
        t "pad_slice" test_pad_slice;
        t "slice/concat roundtrip" test_slice_concat_roundtrip;
        QCheck_alcotest.to_alcotest prop_transpose_involution;
        QCheck_alcotest.to_alcotest prop_pad_slice_adjoint;
      ] );
    ( "tensor.reduce",
      [
        t "reduce_sum" test_reduce_sum;
        t "reduce_mean" test_reduce_mean;
        t "broadcast_axis" test_broadcast_axis;
        t "frobenius" test_frobenius;
        QCheck_alcotest.to_alcotest prop_reduce_sum_total;
      ] );
    ( "tensor.nn",
      [
        t "softmax rows" test_softmax_rows;
        t "log_softmax consistent" test_log_softmax_consistent;
        t "cross entropy manual" test_cross_entropy_manual;
        t "xent grad rows sum 0" test_cross_entropy_grad_rows_sum_zero;
        t "xent label range" test_cross_entropy_label_out_of_range;
        t "dropout mask" test_dropout_mask;
        t "embedding" test_embedding;
        t "embedding grad scatter" test_embedding_grad_scatter_adds;
        t "conv2d hand" test_conv2d_hand;
        t "conv2d stride/pad" test_conv2d_stride_pad;
        t "conv2d channel mismatch" test_conv2d_channel_mismatch;
        QCheck_alcotest.to_alcotest prop_conv_kernels_match_naive;
        t "equality helpers" test_equal_and_diff;
        QCheck_alcotest.to_alcotest prop_softmax_rows_sum_to_one;
      ] );
  ]
