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
   portable 2-lane build ([Tensor.For_testing.with_portable_kernels]), so a
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
  (* The row copies check [dst] in place, so a call that fits allocates
     nothing at all. *)
  let src = Tensor.uniform rng [| 4; 6; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let col = Tensor.slice ~axis:1 ~lo:0 ~hi:1 src in
  let sliced = Tensor.zeros [| 4; 2; 3 |] in
  let padded = Tensor.zeros [| 4; 9; 3 |] in
  let wide = Tensor.zeros [| 4; 5; 3 |] in
  List.iter
    (fun (name, run) ->
      run ();
      check_float (name ^ " allocates nothing") 0.0 (words run))
    [
      ("slice", fun () -> Tensor.Into.slice ~axis:1 ~lo:2 ~hi:4 src ~dst:sliced);
      ( "pad_slice",
        fun () -> Tensor.Into.pad_slice ~axis:1 ~lo:3 ~full:9 src ~dst:padded );
      ( "broadcast_axis",
        fun () -> Tensor.Into.broadcast_axis ~axis:1 ~n:5 col ~dst:wide );
    ];
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
  Tensor.For_testing.with_portable_kernels (fun () ->
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

(* A [dst] that does not fit gets the full diagnostic. *)
let check_raises_msg msg f = Alcotest.check_raises msg (Invalid_argument msg) f

let test_slice_axis1 () =
  let t = t2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  assert_tensor "col 1" (t2 [ [ 2. ]; [ 5. ] ]) (Tensor.slice ~axis:1 ~lo:1 ~hi:2 t);
  let slice ~axis ~lo ~hi dst () = Tensor.Into.slice ~axis ~lo ~hi t ~dst in
  check_raises_msg "Tensor.Into.slice: dst has shape [2x2], result needs [2x1]"
    (slice ~axis:1 ~lo:1 ~hi:2 (Tensor.zeros [| 2; 2 |]));
  check_raises_msg "Tensor.Into.slice: dst has shape [2], result needs [2x1]"
    (slice ~axis:1 ~lo:1 ~hi:2 (Tensor.zeros [| 2 |]));
  check_raises_msg "Shape.slice_result: bad range [2,1) for dim 3"
    (slice ~axis:1 ~lo:2 ~hi:1 (Tensor.zeros [| 2; 1 |]));
  check_raises_msg "Shape.slice_result: axis out of bounds"
    (slice ~axis:2 ~lo:0 ~hi:1 (Tensor.zeros [| 2; 1 |]))

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
    (Tensor.pad_slice ~axis:0 ~lo:1 ~full:3 t);
  check_raises_msg
    "Tensor.Into.pad_slice: dst has shape [2x2], result needs [3x2]"
    (fun () ->
      Tensor.Into.pad_slice ~axis:0 ~lo:1 ~full:3 t ~dst:(Tensor.zeros [| 2; 2 |]))

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
  check_raises_msg
    "Tensor.Into.broadcast_axis: dst has shape [3x2], result needs [4x2]"
    (fun () ->
      Tensor.Into.broadcast_axis ~axis:0 ~n:4 t ~dst:(Tensor.zeros [| 3; 2 |]));
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

(* {1 C kernels vs the OCaml loops they replaced}

   The elementwise ops, fused chains, [reduce_sum], [add_bias] and the row
   copies of the slicing kernels run C code (kernel_stubs.c). [Old] keeps
   the OCaml loops they replaced, copied verbatim (the scalar kernels,
   [apply1], [apply2], [broadcast_blocks], and the loop bodies of the
   destination-passing [fused], [reduce_sum], [add_bias], [slice],
   [pad_slice] and [concat]), over a local copy of the step type. *)
module Old = struct
  type fused_step =
    | F_neg
    | F_scale of float
    | F_add_scalar of float
    | F_pow_const of float
    | F_sigmoid
    | F_tanh
    | F_relu
    | F_exp
    | F_log
    | F_sqrt
    | F_sq
    | F_recip
    | F_sign
    | F_add of int
    | F_sub of int
    | F_mul of int
    | F_div of int
    | F_scale_by of int

  let to_step = function
    | F_neg -> Tensor.f_neg
    | F_scale c -> Tensor.f_scale c
    | F_add_scalar c -> Tensor.f_add_scalar c
    | F_pow_const p -> Tensor.f_pow_const p
    | F_sigmoid -> Tensor.f_sigmoid
    | F_tanh -> Tensor.f_tanh
    | F_relu -> Tensor.f_relu
    | F_exp -> Tensor.f_exp
    | F_log -> Tensor.f_log
    | F_sqrt -> Tensor.f_sqrt
    | F_sq -> Tensor.f_sq
    | F_recip -> Tensor.f_recip
    | F_sign -> Tensor.f_sign
    | F_add j -> Tensor.f_add j
    | F_sub j -> Tensor.f_sub j
    | F_mul j -> Tensor.f_mul j
    | F_div j -> Tensor.f_div j
    | F_scale_by j -> Tensor.f_scale_by j

  let k_neg x = -.x
  let k_sigmoid x = 1.0 /. (1.0 +. exp (-.x)) [@@inline]
  let k_relu x = if x > 0.0 then x else 0.0
  let k_sq x = x *. x
  let k_recip x = 1.0 /. x
  let k_sign x = if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0

  let apply1 step s d lo hi =
    match step with
    | F_neg ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_neg (Array.unsafe_get s i))
      done
    | F_scale c ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (c *. Array.unsafe_get s i)
      done
    | F_add_scalar c ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (c +. Array.unsafe_get s i)
      done
    | F_pow_const p ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (Float.pow (Array.unsafe_get s i) p)
      done
    | F_sigmoid ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_sigmoid (Array.unsafe_get s i))
      done
    | F_tanh ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (tanh (Array.unsafe_get s i))
      done
    | F_relu ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_relu (Array.unsafe_get s i))
      done
    | F_exp ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (exp (Array.unsafe_get s i))
      done
    | F_log ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (log (Array.unsafe_get s i))
      done
    | F_sqrt ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (sqrt (Array.unsafe_get s i))
      done
    | F_sq ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_sq (Array.unsafe_get s i))
      done
    | F_recip ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_recip (Array.unsafe_get s i))
      done
    | F_sign ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (k_sign (Array.unsafe_get s i))
      done
    | F_add _ | F_sub _ | F_mul _ | F_div _ | F_scale_by _ ->
      invalid_arg "Tensor.apply1: binary step"

  (* [apply2 step x y d lo hi]: d.(i) <- x.(i) `step` y.(i) on [lo, hi).
     The step's operand index is ignored — [y] is passed explicitly. *)
  let apply2 step x y d lo hi =
    match step with
    | F_add _ ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (Array.unsafe_get x i +. Array.unsafe_get y i)
      done
    | F_sub _ ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (Array.unsafe_get x i -. Array.unsafe_get y i)
      done
    | F_mul _ ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (Array.unsafe_get x i *. Array.unsafe_get y i)
      done
    | F_div _ ->
      for i = lo to hi - 1 do
        Array.unsafe_set d i (Array.unsafe_get x i /. Array.unsafe_get y i)
      done
    | _ -> invalid_arg "Tensor.apply2: unary step"


  let broadcast_blocks (src : float array) (dst : float array) ~outer ~n ~inner =
    for o = 0 to outer - 1 do
      if inner = 1 then Array.fill dst (o * n) n (Array.unsafe_get src o)
      else
        for a = 0 to n - 1 do
          Array.blit src (o * inner) dst (((o * n) + a) * inner) inner
        done
    done

  (* [Into.fused]'s chunk body over [lo, hi), its per-domain scratch a
     local buffer; [datas.(st)] is the data of step [st]'s operand. *)
  let fused steps (datas : float array array) s d lo hi =
    let k = Array.length steps in
    let w = hi - lo in
    let buf = Array.make w 0.0 in
    Array.blit s lo buf 0 w;
    for st = 0 to k - 1 do
      match Array.unsafe_get steps st with
      | F_add _ ->
        let o = Array.unsafe_get datas st in
        for i = 0 to w - 1 do
          Array.unsafe_set buf i
            (Array.unsafe_get buf i +. Array.unsafe_get o (lo + i))
        done
      | F_sub _ ->
        let o = Array.unsafe_get datas st in
        for i = 0 to w - 1 do
          Array.unsafe_set buf i
            (Array.unsafe_get buf i -. Array.unsafe_get o (lo + i))
        done
      | F_mul _ ->
        let o = Array.unsafe_get datas st in
        for i = 0 to w - 1 do
          Array.unsafe_set buf i
            (Array.unsafe_get buf i *. Array.unsafe_get o (lo + i))
        done
      | F_div _ ->
        let o = Array.unsafe_get datas st in
        for i = 0 to w - 1 do
          Array.unsafe_set buf i
            (Array.unsafe_get buf i /. Array.unsafe_get o (lo + i))
        done
      | F_scale_by _ ->
        let c = Array.unsafe_get (Array.unsafe_get datas st) 0 in
        for i = 0 to w - 1 do
          Array.unsafe_set buf i (c *. Array.unsafe_get buf i)
        done
      | step -> apply1 step buf buf 0 w
    done;
    Array.blit buf 0 d lo w

  (* [Into.reduce_sum]'s chunk body. *)
  let reduce_sum (s : float array) (out : float array) ~d ~inner lo hi =
    Array.fill out (lo * inner) ((hi - lo) * inner) 0.0;
    for o = lo to hi - 1 do
      for a = 0 to d - 1 do
        let src_off = ((o * d) + a) * inner in
        let dst_off = o * inner in
        for k = 0 to inner - 1 do
          Array.unsafe_set out (dst_off + k)
            (Array.unsafe_get out (dst_off + k)
            +. Array.unsafe_get s (src_off + k))
        done
      done
    done

  (* [Into.add_bias]'s chunk body. *)
  let add_bias (md : float array) (bd : float array) (d : float array) ~cols
      lo hi =
    for i = lo to hi - 1 do
      let row = i * cols in
      for j = 0 to cols - 1 do
        Array.unsafe_set d (row + j)
          (Array.unsafe_get md (row + j) +. Array.unsafe_get bd j)
      done
    done

  (* The row copies of [Into.slice], [Into.pad_slice] and [Into.concat]
     (one tensor's share), along the middle axis of [outer x d x inner]. *)
  let slice (src : float array) (dst : float array) ~outer ~d ~inner ~lo
      ~hi =
    let width = hi - lo in
    for o = 0 to outer - 1 do
      Array.blit src
        (((o * d) + lo) * inner)
        dst
        (o * width * inner)
        (width * inner)
    done

  let pad_slice (src : float array) (dst : float array) ~outer ~d ~inner
      ~lo ~full =
    Array.fill dst 0 (Array.length dst) 0.0;
    for o = 0 to outer - 1 do
      Array.blit src (o * d * inner) dst (((o * full) + lo) * inner) (d * inner)
    done

  let concat_one (src : float array) (dst : float array) ~outer ~d ~inner
      ~offset ~total =
    for o = 0 to outer - 1 do
      Array.blit src (o * d * inner) dst
        (((o * total) + offset) * inner)
        (d * inner)
    done
end

let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Operand values: two quiet NaNs of different payload and sign, +-0,
   +-inf, subnormals, values whose products overflow or underflow, and
   plain random ones. *)
let special_values =
  [|
    Int64.float_of_bits 0x7FF8000000000001L;
    Int64.float_of_bits 0xFFF8000000000ABCL;
    0.0;
    -0.0;
    Float.infinity;
    Float.neg_infinity;
    Int64.float_of_bits 1L;
    -.Int64.float_of_bits 0x000F000000000000L;
    1e300;
    -1e-300;
    1.0;
    -1.0;
  |]

(* One in three values is one of the two NaNs, so two different payloads
   meet in about one element in eighteen. *)
let kernel_value rng =
  match Rng.int rng 6 with
  | 0 | 1 as k -> special_values.(k)
  | 2 | 3 -> special_values.(2 + Rng.int rng (Array.length special_values - 2))
  | _ -> Rng.uniform rng ~lo:(-4.0) ~hi:4.0

let kernel_tensor rng shape =
  Tensor.init shape (fun _ -> kernel_value rng)

let unary_steps rng =
  let c () = kernel_value rng in
  [
    Old.F_neg; Old.F_scale (c ()); Old.F_add_scalar (c ());
    Old.F_pow_const [| 2.0; 0.5; -1.0; 3.0; c () |].(Rng.int rng 5);
    Old.F_sigmoid; Old.F_tanh; Old.F_relu; Old.F_exp; Old.F_log; Old.F_sqrt;
    Old.F_sq; Old.F_recip; Old.F_sign;
  ]

(* The [Into] kernel of a unary step. *)
let into_unary ~runtime step x ~dst =
  let module I = Tensor.Into in
  match step with
  | Old.F_neg -> I.neg ~runtime x ~dst
  | Old.F_scale c -> I.scale ~runtime c x ~dst
  | Old.F_add_scalar c -> I.add_scalar ~runtime c x ~dst
  | Old.F_pow_const p -> I.pow_const ~runtime p x ~dst
  | Old.F_sigmoid -> I.sigmoid ~runtime x ~dst
  | Old.F_tanh -> I.tanh_ ~runtime x ~dst
  | Old.F_relu -> I.relu ~runtime x ~dst
  | Old.F_exp -> I.exp_ ~runtime x ~dst
  | Old.F_log -> I.log_ ~runtime x ~dst
  | Old.F_sqrt -> I.sqrt_ ~runtime x ~dst
  | Old.F_sq -> I.sq ~runtime x ~dst
  | Old.F_recip -> I.recip ~runtime x ~dst
  | Old.F_sign -> I.sign ~runtime x ~dst
  | _ -> invalid_arg "into_unary: binary step"

(* The [Into] kernel of a binary step. *)
let into_binary ~runtime step x y ~dst =
  let module I = Tensor.Into in
  match step with
  | Old.F_add _ -> I.add ~runtime x y ~dst
  | Old.F_sub _ -> I.sub ~runtime x y ~dst
  | Old.F_mul _ -> I.mul ~runtime x y ~dst
  | Old.F_div _ -> I.div ~runtime x y ~dst
  | _ -> invalid_arg "into_binary: unary step"

(* One random case per kernel family, from [seed], on [runtime]: length
   1..67 (every vector tail of both builds; no tensor has 0 elements),
   [dst] a fresh NaN-filled tensor, the first operand or the second. On a
   pool whose gate is open the chunks start at nonzero offsets. *)
let kernels_match_old_loops ~runtime seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 67 in
  let x = kernel_tensor rng [| n |] and y = kernel_tensor rng [| n |] in
  let data = Tensor.unsafe_data in
  let fail what =
    QCheck.Test.fail_reportf
      "%s differs from the OCaml loop (n=%d, seed=%d, isa=%s)" what n seed
      (Tensor.gemm_isa ())
  in
  (* [dst] choice: 0 fresh, 1 the first operand, 2 the second. *)
  let with_dst operands run =
    match Rng.int rng 3 with
    | 0 ->
      let dst = Tensor.full [| n |] Float.nan in
      run operands dst;
      dst
    | k ->
      let operands = Array.map Tensor.copy operands in
      let dst = operands.(min (k - 1) (Array.length operands - 1)) in
      run operands dst;
      dst
  in
  (* Binary ops. *)
  List.iter
    (fun step ->
      let expect = Array.make n 0.0 in
      Old.apply2 step (data x) (data y) expect 0 n;
      let got =
        with_dst [| x; y |] (fun ops dst ->
            into_binary ~runtime step ops.(0) ops.(1) ~dst)
      in
      if not (same_bits expect (data got)) then fail "binary step")
    [ Old.F_add 1; Old.F_sub 1; Old.F_mul 1; Old.F_div 1 ];
  (* Unary ops, constants drawn from the same values (a NaN constant is
     the first operand of [scale] and [add_scalar]). *)
  List.iter
    (fun step ->
      let expect = Array.make n 0.0 in
      Old.apply1 step (data x) expect 0 n;
      let got =
        with_dst [| x |] (fun ops dst -> into_unary ~runtime step ops.(0) ~dst)
      in
      if not (same_bits expect (data got)) then fail "unary step")
    (unary_steps rng);
  (* A fused chain of 1..6 steps over operands [x; y; z; s], s a scalar
     multiplier. *)
  let z = kernel_tensor rng [| n |] and s = Tensor.scalar (kernel_value rng) in
  let operands = [| x; y; z; s |] in
  let steps =
    Array.init (1 + Rng.int rng 6) (fun _ ->
        match Rng.int rng 3 with
        | 0 -> List.nth (unary_steps rng) (Rng.int rng 13)
        | 1 -> (
          let j = Rng.int rng 3 in
          match Rng.int rng 4 with
          | 0 -> Old.F_add j
          | 1 -> Old.F_sub j
          | 2 -> Old.F_mul j
          | _ -> Old.F_div j)
        | _ -> if Rng.int rng 2 = 0 then Old.F_scale_by 3 else Old.F_add (Rng.int rng 3))
  in
  let datas =
    Array.map
      (function
        | Old.F_add j | Old.F_sub j | Old.F_mul j | Old.F_div j
        | Old.F_scale_by j ->
          data operands.(j)
        | _ -> data x)
      steps
  in
  let expect = Array.make n 0.0 in
  Old.fused steps datas (data x) expect 0 n;
  let got =
    with_dst operands (fun ops dst ->
        Tensor.Into.fused ~runtime (Array.map Old.to_step steps) ops ~dst)
  in
  if not (same_bits expect (data got)) then fail "fused chain";
  (* reduce_sum over the middle axis of [outer x d x inner], inner = 1 or
     1..67. *)
  let outer = 1 + Rng.int rng 5 and d = 1 + Rng.int rng 6 in
  let inner = if Rng.int rng 2 = 0 then 1 else n in
  let t = kernel_tensor rng [| outer; d; inner |] in
  let expect = Array.make (outer * inner) Float.nan in
  Old.reduce_sum (data t) expect ~d ~inner 0 outer;
  let dst = Tensor.full [| outer; inner |] Float.nan in
  Tensor.Into.reduce_sum ~runtime ~axis:1 ~keepdims:false t ~dst;
  if not (same_bits expect (data dst)) then fail "reduce_sum";
  (* add_bias, [dst] fresh or the matrix. *)
  let m = kernel_tensor rng [| outer; n |] in
  let expect = Array.make (outer * n) 0.0 in
  Old.add_bias (data m) (data x) expect ~cols:n 0 outer;
  let dst =
    if Rng.int rng 2 = 0 then Tensor.full [| outer; n |] Float.nan
    else Tensor.copy m
  in
  Tensor.Into.add_bias ~runtime (Tensor.copy m) x ~dst;
  if not (same_bits expect (data dst)) then fail "add_bias";
  (* Row copies along the middle axis. *)
  let lo = Rng.int rng d in
  let hi = lo + 1 + Rng.int rng (d - lo) in
  let expect = Array.make (outer * (hi - lo) * inner) 0.0 in
  Old.slice (data t) expect ~outer ~d ~inner ~lo ~hi;
  let dst = Tensor.full [| outer; hi - lo; inner |] Float.nan in
  Tensor.Into.slice ~axis:1 ~lo ~hi t ~dst;
  if not (same_bits expect (data dst)) then fail "slice";
  let full = d + Rng.int rng 4 in
  let lo = Rng.int rng (full - d + 1) in
  let expect = Array.make (outer * full * inner) 0.0 in
  Old.pad_slice (data t) expect ~outer ~d ~inner ~lo ~full;
  let dst = Tensor.full [| outer; full; inner |] Float.nan in
  Tensor.Into.pad_slice ~axis:1 ~lo ~full t ~dst;
  if not (same_bits expect (data dst)) then fail "pad_slice";
  let d2 = 1 + Rng.int rng 3 in
  let t2 = kernel_tensor rng [| outer; d2; inner |] in
  let expect = Array.make (outer * (d + d2) * inner) 0.0 in
  Old.concat_one (data t) expect ~outer ~d ~inner ~offset:0 ~total:(d + d2);
  Old.concat_one (data t2) expect ~outer ~d:d2 ~inner ~offset:d ~total:(d + d2);
  let dst = Tensor.full [| outer; d + d2; inner |] Float.nan in
  Tensor.Into.concat ~axis:1 [ t; t2 ] ~dst;
  if not (same_bits expect (data dst)) then fail "concat";
  let col = kernel_tensor rng [| outer; 1; inner |] in
  let expect = Array.make (outer * d * inner) 0.0 in
  Old.broadcast_blocks (data col) expect ~outer ~n:d ~inner;
  let dst = Tensor.full [| outer; d; inner |] Float.nan in
  Tensor.Into.broadcast_axis ~axis:1 ~n:d col ~dst;
  if not (same_bits expect (data dst)) then fail "broadcast_axis";
  true

let prop_kernels_match_old_loops ~portable =
  QCheck.Test.make
    ~name:
      (if portable then "C kernels == OCaml loops, portable build"
       else "C kernels == OCaml loops")
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let pool =
        Parallel.create ~domains:2 ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let run () =
        kernels_match_old_loops ~runtime:Parallel.sequential seed
        && kernels_match_old_loops ~runtime:pool seed
      in
      if portable then Tensor.For_testing.with_portable_kernels run else run ())

(* The softmax family, cross-entropy and the embeddings keep two loop
   bodies on purpose: the allocating form is [Interp]'s reference,
   independent of the [Into] kernel the executor runs. Each kernel must
   equal its twin bit for bit. Rows are plain, or drawn from the special
   values (NaN, +-inf, -0, ...); [dst] is fresh and NaN-filled or, for the
   three ops [Memplan.inplace_capable] lets run in place, the input
   itself. *)
let into_matches_allocating ~runtime seed =
  let module I = Tensor.Into in
  let rng = Rng.create seed in
  let rows = 1 + Rng.int rng 6 and cols = 1 + Rng.int rng 40 in
  let row_kinds = Array.init rows (fun _ -> Rng.int rng 2) in
  let logits =
    Tensor.init [| rows; cols |] (fun idx ->
        if row_kinds.(idx.(0)) = 0 then Rng.uniform rng ~lo:(-4.0) ~hi:4.0
        else kernel_value rng)
  in
  let labels =
    Tensor.init [| rows |] (fun _ -> float_of_int (Rng.int rng cols))
  in
  let fail what =
    QCheck.Test.fail_reportf
      "Into.%s differs from its allocating twin (seed=%d, %d domains)" what
      seed (Parallel.domains runtime)
  in
  let in_place = Rng.int rng 2 = 0 in
  let unary what expect run =
    let src = Tensor.copy logits in
    let dst =
      if in_place then src else Tensor.full [| rows; cols |] Float.nan
    in
    run src dst;
    if not (bits_equal expect dst) then fail what
  in
  unary "softmax" (Tensor.softmax logits) (fun src dst ->
      I.softmax ~runtime src ~dst);
  unary "log_softmax" (Tensor.log_softmax logits) (fun src dst ->
      I.log_softmax ~runtime src ~dst);
  unary "cross_entropy_grad" (Tensor.cross_entropy_grad ~logits ~labels)
    (fun src dst -> I.cross_entropy_grad ~runtime ~logits:src ~labels ~dst ());
  let dst = Tensor.scalar Float.nan in
  I.cross_entropy ~logits ~labels ~dst;
  if not (bits_equal (Tensor.scalar (Tensor.cross_entropy ~logits ~labels)) dst)
  then fail "cross_entropy";
  (* Ids repeat, so the scatter-add meets the same table row twice. *)
  let v = 1 + Rng.int rng 5 and b = 1 + Rng.int rng 8 in
  let table = kernel_tensor rng [| v; cols |] in
  let ids = Tensor.init [| b |] (fun _ -> float_of_int (Rng.int rng v)) in
  let dst = Tensor.full [| b; cols |] Float.nan in
  I.embedding ~runtime ~table ~ids ~dst ();
  if not (bits_equal (Tensor.embedding ~table ~ids) dst) then fail "embedding";
  let grad_out = kernel_tensor rng [| b; cols |] in
  let dst = Tensor.full [| v; cols |] Float.nan in
  I.embedding_grad ~runtime ~ids ~grad_out ~dst ();
  if
    not
      (bits_equal
         (Tensor.embedding_grad ~table_shape:[| v; cols |] ~ids ~grad_out)
         dst)
  then fail "embedding_grad";
  true

let prop_into_matches_allocating =
  QCheck.Test.make ~name:"softmax-family Into kernels == allocating twins"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let pool =
        Parallel.create ~domains:2 ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      into_matches_allocating ~runtime:Parallel.sequential seed
      && into_matches_allocating ~runtime:pool seed)

(* FMA canary for the elementwise kernels: the chain x * y + z with
   x = 1 + 2^-30, y = 1 - 2^-30, z = -1, fused and unfused. Unfused, the
   product rounds to 1 and every output is +0; a contracted multiply-add
   gives -2^-60. Length 67 covers the vector body and the scalar tail. *)
let test_elementwise_fma_canary () =
  let e = Float.ldexp 1.0 (-30) in
  let n = 67 in
  let x = Tensor.full [| n |] (1.0 +. e) and y = Tensor.full [| n |] (1.0 -. e) in
  let z = Tensor.full [| n |] (-1.0) in
  let zeros = Array.make n 0.0 in
  let check_build () =
    let dst = Tensor.full [| n |] Float.nan in
    Tensor.Into.fused [| Tensor.f_mul 1; Tensor.f_add 2 |] [| x; y; z |] ~dst;
    check_bool "fused canary outputs are +0" true
      (same_bits zeros (Tensor.unsafe_data dst));
    let dst = Tensor.full [| n |] Float.nan in
    Tensor.Into.mul x y ~dst;
    Tensor.Into.add dst z ~dst;
    check_bool "unfused canary outputs are +0" true
      (same_bits zeros (Tensor.unsafe_data dst))
  in
  check_build ();
  Tensor.For_testing.with_portable_kernels check_build

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
        QCheck_alcotest.to_alcotest (prop_kernels_match_old_loops ~portable:false);
        QCheck_alcotest.to_alcotest (prop_kernels_match_old_loops ~portable:true);
        t "elementwise FMA canary" test_elementwise_fma_canary;
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
        QCheck_alcotest.to_alcotest prop_into_matches_allocating;
      ] );
  ]
