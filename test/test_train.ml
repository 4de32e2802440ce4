(* Optimizers, training loop and synthetic workloads. *)

open Echo_tensor
open Echo_ir
open Echo_train
open Echo_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* One parameter node for [value], and one [step_arrays] update of it. *)
let param value = [| Node.variable ~name:"p" (Tensor.shape value) |]

let step1 opt param_nodes value grad =
  (Optimizer.step_arrays opt ~param_nodes ~params:[| value |] ~grads:[| grad |]).(0)

let test_sgd_step () =
  let v = Tensor.of_list1 [ 1.0; 2.0 ] in
  let opt = Optimizer.create (Optimizer.Sgd { lr = 0.1 }) in
  let updated = step1 opt (param v) v (Tensor.of_list1 [ 1.0; -1.0 ]) in
  check_bool "w - lr*g" true
    (Tensor.approx_equal updated (Tensor.of_list1 [ 0.9; 2.1 ]))

let test_momentum_accumulates () =
  let v = Tensor.of_list1 [ 0.0 ] in
  let p = param v in
  let opt = Optimizer.create (Optimizer.Momentum { lr = 1.0; momentum = 0.5 }) in
  let g = Tensor.of_list1 [ 1.0 ] in
  let v1 = step1 opt p v g in
  let v2 = step1 opt p v1 g in
  (* velocities: 1, then 1.5; positions: -1, then -2.5 *)
  check_float "after two steps" (-2.5) (Tensor.get1 v2 0)

let test_adam_direction_and_magnitude () =
  let v = Tensor.of_list1 [ 0.0 ] in
  let opt =
    Optimizer.create (Optimizer.Adam { lr = 0.1; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 })
  in
  let x = Tensor.get1 (step1 opt (param v) v (Tensor.of_list1 [ 3.0 ])) 0 in
  (* First Adam step is ~ -lr regardless of gradient scale. *)
  check_bool "step ~ -lr" true (Float.abs (x +. 0.1) < 1e-3)

let test_missing_gradient_raises () =
  let v = Tensor.of_list1 [ 0.0 ] in
  let opt = Optimizer.create (Optimizer.Sgd { lr = 0.1 }) in
  check_bool "raises" true
    (try
       ignore
         (Optimizer.step_arrays opt ~param_nodes:(param v) ~params:[| v |]
            ~grads:[||]);
       false
     with Invalid_argument _ -> true)

let test_clipping () =
  let g = Tensor.of_list1 [ 3.0; 4.0 ] in
  let clipped = Optimizer.clip_by_global_norm_arrays ~max_norm:1.0 [| g |] in
  check_float "renormalised" 1.0 (Tensor.frobenius clipped.(0));
  let untouched = Optimizer.clip_by_global_norm_arrays ~max_norm:10.0 [| g |] in
  check_bool "below threshold untouched" true (Tensor.equal g untouched.(0))

let test_footprint_kinds () =
  check_bool "sgd" true
    (Optimizer.footprint_kind (Optimizer.create (Optimizer.Sgd { lr = 0.1 }))
    = Echo_exec.Footprint.Sgd);
  check_bool "adam" true
    (Optimizer.footprint_kind
       (Optimizer.create (Optimizer.Adam { lr = 0.1; beta1 = 0.9; beta2 = 0.99; eps = 1e-8 }))
    = Echo_exec.Footprint.Adam)

(* The optimizer's two entry points against each other and against the
   update rules written with the allocating tensor ops (the formulation the
   [Tensor.Into] update kernels must reproduce bit for bit). Over four
   steps of every rule: [step_in_place] equals [step_arrays], slots
   included; [step_arrays] never touches the tensors it is given; and both
   equal the reference. *)
let same_bits a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.to_array a) (Tensor.to_array b)

let reference_update spec ~step ~slots i value g =
  let slot tbl =
    match Hashtbl.find_opt tbl i with
    | Some t -> t
    | None -> Tensor.zeros (Tensor.shape value)
  in
  let first, second = slots in
  match spec with
  | Optimizer.Sgd { lr } -> Tensor.sub value (Tensor.scale lr g)
  | Optimizer.Momentum { lr; momentum } ->
    let v = Tensor.add (Tensor.scale momentum (slot first)) g in
    Hashtbl.replace first i v;
    Tensor.sub value (Tensor.scale lr v)
  | Optimizer.Adam { lr; beta1; beta2; eps } ->
    let m =
      Tensor.add (Tensor.scale beta1 (slot first)) (Tensor.scale (1.0 -. beta1) g)
    in
    let v =
      Tensor.add
        (Tensor.scale beta2 (slot second))
        (Tensor.scale (1.0 -. beta2) (Tensor.sq g))
    in
    Hashtbl.replace first i m;
    Hashtbl.replace second i v;
    let steps = float_of_int step in
    let m_hat = Tensor.scale (1.0 /. (1.0 -. Float.pow beta1 steps)) m in
    let v_hat = Tensor.scale (1.0 /. (1.0 -. Float.pow beta2 steps)) v in
    Tensor.sub value
      (Tensor.div (Tensor.scale lr m_hat) (Tensor.add_scalar eps (Tensor.sqrt_ v_hat)))

let test_entry_points_agree () =
  let rng = Rng.create 31 in
  let shapes = [| [| 3; 4 |]; [| 5 |]; [| 1 |] |] in
  let param_nodes = Array.map (fun s -> Node.variable ~name:"p" s) shapes in
  List.iter
    (fun (name, spec) ->
      let fresh () = Optimizer.create spec in
      let o_arrays = fresh () and o_place = fresh () in
      (* Parameters on the scale of one update, so a rounding difference
         in the update survives the final subtraction. *)
      let init =
        Array.map (fun s -> Tensor.uniform rng s ~lo:(-1e-3) ~hi:1e-3) shapes
      in
      (* Exact zeros in the gradients too: Adam's first steps then divide a
         zero moment by eps. *)
      let grads () =
        Array.map
          (fun s ->
            let g = Tensor.uniform rng s ~lo:(-2.0) ~hi:2.0 in
            Tensor.set1 g 0 0.0;
            g)
          shapes
      in
      let arrays = ref init in
      let place = Array.map Tensor.copy init in
      let reference = ref (Array.map Tensor.copy init) in
      let slots = (Hashtbl.create 4, Hashtbl.create 4) in
      for step = 1 to 4 do
        let g = grads () in
        let before = Array.map Tensor.copy !arrays in
        let next = Optimizer.step_arrays o_arrays ~param_nodes ~params:!arrays ~grads:g in
        Array.iteri
          (fun i t ->
            check_bool
              (Printf.sprintf "%s: step_arrays leaves params %d untouched" name i)
              true (same_bits before.(i) t))
          !arrays;
        Optimizer.step_in_place o_place ~param_nodes ~params:place ~grads:g;
        reference :=
          Array.mapi
            (fun i v -> reference_update spec ~step ~slots i v g.(i))
            !reference;
        Array.iteri
          (fun i t ->
            let what = Printf.sprintf "%s step %d param %d" name step i in
            check_bool (what ^ ": in place == step_arrays") true (same_bits t place.(i));
            check_bool (what ^ ": == tensor-op reference") true
              (same_bits t !reference.(i)))
          next;
        arrays := next;
        let s1 = Optimizer.snapshot o_arrays ~param_nodes in
        let s2 = Optimizer.snapshot o_place ~param_nodes in
        let same_slots a b =
          List.length a = List.length b
          && List.for_all2 (fun (i, x) (j, y) -> i = j && same_bits x y) a b
        in
        check_bool (name ^ ": step counters") true (s1.Optimizer.steps = s2.Optimizer.steps);
        check_bool (name ^ ": velocity slots") true
          (same_slots s1.Optimizer.velocity s2.Optimizer.velocity);
        check_bool (name ^ ": second-moment slots") true
          (same_slots s1.Optimizer.second s2.Optimizer.second)
      done)
    [
      ("sgd", Optimizer.Sgd { lr = 0.1 });
      ("momentum", Optimizer.Momentum { lr = 0.05; momentum = 0.9 });
      ("adam", Optimizer.Adam { lr = 1e-3; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 });
    ]

(* Clipping into persistent buffers is bit-identical to the allocating
   clip, and leaves its input alone. *)
let test_clip_into_agrees () =
  let rng = Rng.create 8 in
  let grads = [| Tensor.uniform rng [| 4; 3 |] ~lo:(-3.0) ~hi:3.0; Tensor.uniform rng [| 7 |] ~lo:(-3.0) ~hi:3.0 |] in
  let before = Array.map Tensor.copy grads in
  let dst = Array.map (fun g -> Tensor.zeros (Tensor.shape g)) grads in
  let fresh = Optimizer.clip_by_global_norm_arrays ~max_norm:1.0 grads in
  let into = Optimizer.clip_by_global_norm_into ~max_norm:1.0 grads ~dst in
  check_bool "writes the buffers" true (into == dst);
  Array.iteri (fun i g -> check_bool "same bits" true (same_bits g into.(i))) fresh;
  Array.iteri (fun i g -> check_bool "input untouched" true (same_bits before.(i) g)) grads;
  check_bool "no clip returns the input" true
    (Optimizer.clip_by_global_norm_into ~max_norm:1e9 grads ~dst == grads)

(* [Loop.train] steps its own copy of the parameters in place; the
   caller's tensors — shared, e.g., by campaign golden runs — keep their
   values. *)
let test_loop_leaves_caller_params () =
  let w = Node.variable ~name:"w" [| 3 |] in
  let target = Node.placeholder ~name:"t" [| 3 |] in
  let loss = Node.reduce_sum ~axis:0 ~keepdims:false (Node.sq (Node.sub w target)) in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ w ] in
  let init = Tensor.of_list1 [ 0.5; -1.0; 2.0 ] in
  let kept = Tensor.copy init in
  let result =
    Loop.train ~graph:training.Echo_autodiff.Grad.graph ~params:[ (w, init) ]
      ~optimizer:
        (Optimizer.create
           (Optimizer.Adam { lr = 0.1; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 }))
      ~clip_norm:1.0
      ~batches:(List.init 4 (fun _ -> [ (target, Tensor.of_list1 [ 3.0; -2.0; 1.0 ]) ]))
      ()
  in
  check_bool "caller's tensor untouched" true (same_bits kept init);
  check_bool "trained values differ" false
    (same_bits kept (snd (List.hd result.Loop.params)))

(* Training loop on a convex toy problem: minimise ||w - target||^2. *)
let test_loop_converges () =
  let w = Node.variable ~name:"w" [| 2 |] in
  let target = Node.placeholder ~name:"t" [| 2 |] in
  let diff = Node.sub w target in
  let loss = Node.reduce_sum ~axis:0 ~keepdims:false (Node.sq diff) in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ w ] in
  let batches =
    List.init 50 (fun _ -> [ (target, Tensor.of_list1 [ 3.0; -2.0 ]) ])
  in
  let result =
    Loop.train ~graph:training.Echo_autodiff.Grad.graph
      ~params:[ (w, Tensor.zeros [| 2 |]) ]
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.1 }))
      ~batches ()
  in
  let final = snd (List.hd result.Loop.params) in
  check_bool "converged" true
    (Tensor.approx_equal ~tol:1e-3 final (Tensor.of_list1 [ 3.0; -2.0 ]));
  check_bool "loss decreasing" true
    (List.nth result.Loop.losses 49 < List.nth result.Loop.losses 0)

let test_loop_on_step_callback () =
  let w = Node.variable [| 1 |] in
  let loss = Node.reduce_sum ~axis:0 ~keepdims:false (Node.sq w) in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ w ] in
  let seen = ref [] in
  let _ =
    Loop.train ~graph:training.Echo_autodiff.Grad.graph
      ~params:[ (w, Tensor.of_list1 [ 2.0 ]) ]
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.1 }))
      ~on_step:(fun s -> seen := s.Loop.step :: !seen)
      ~batches:[ []; []; [] ] ()
  in
  Alcotest.(check (list int)) "steps observed" [ 2; 1; 0 ] !seen

let test_perplexity () = check_float "exp" (exp 2.0) (Loop.perplexity 2.0)

(* Corpus *)

let test_corpus_deterministic () =
  let a = Corpus.generate ~seed:1 ~vocab:100 ~length:1000 in
  let b = Corpus.generate ~seed:1 ~vocab:100 ~length:1000 in
  let same = ref true in
  for i = 0 to 999 do
    if Corpus.token a i <> Corpus.token b i then same := false
  done;
  check_bool "same stream" true !same

let test_corpus_token_range () =
  let c = Corpus.generate ~seed:2 ~vocab:37 ~length:5000 in
  for i = 0 to 4999 do
    let t = Corpus.token c i in
    check_bool "in range" true (t >= 0 && t < 37)
  done

let test_corpus_zipf_head_heavy () =
  let c = Corpus.generate ~seed:3 ~vocab:1000 ~length:50_000 in
  let count_low = ref 0 in
  for i = 0 to Corpus.length c - 1 do
    if Corpus.token c i < 10 then incr count_low
  done;
  (* Top-10 ranks of a 1000-token Zipf law carry ~39% of the mass. *)
  check_bool "head heavy" true (float_of_int !count_low /. 50_000.0 > 0.2)

let test_lm_batches_shift () =
  let c = Corpus.generate ~seed:4 ~vocab:50 ~length:100_000 in
  let batches = Corpus.lm_batches c ~batch:4 ~seq_len:6 ~steps:3 in
  check_int "steps" 3 (List.length batches);
  List.iter
    (fun (tokens, labels) ->
      check_bool "shapes" true
        (Shape.equal (Tensor.shape tokens) [| 24 |]
        && Shape.equal (Tensor.shape labels) [| 24 |]))
    batches;
  (* label(t, b) = token(t+1, b): compare across consecutive time rows. *)
  let tokens, labels = List.hd batches in
  for b = 0 to 3 do
    for t = 0 to 4 do
      check_float "shifted by one"
        (Tensor.get1 tokens (((t + 1) * 4) + b))
        (Tensor.get1 labels ((t * 4) + b))
    done
  done

let test_lm_batches_too_short () =
  let c = Corpus.generate ~seed:5 ~vocab:10 ~length:50 in
  check_bool "raises" true
    (try
       ignore (Corpus.lm_batches c ~batch:4 ~seq_len:20 ~steps:10);
       false
     with Invalid_argument _ -> true)

let test_pair_batches_shapes () =
  let src = Corpus.generate ~seed:6 ~vocab:30 ~length:50_000 in
  let tgt = Corpus.generate ~seed:7 ~vocab:40 ~length:50_000 in
  let batches = Corpus.pair_batches ~src ~tgt ~batch:3 ~src_len:5 ~tgt_len:4 ~steps:2 in
  check_int "steps" 2 (List.length batches);
  List.iter
    (fun (s, ti, l) ->
      check_bool "src" true (Shape.equal (Tensor.shape s) [| 15 |]);
      check_bool "tgt" true (Shape.equal (Tensor.shape ti) [| 12 |]);
      check_bool "labels" true (Shape.equal (Tensor.shape l) [| 12 |]))
    batches

let test_spectrogram_batches () =
  let batches =
    Corpus.spectrogram_batches ~seed:8 ~batch:2 ~time:16 ~freq:8 ~classes:5 ~frames:4
      ~steps:2
  in
  check_int "steps" 2 (List.length batches);
  List.iter
    (fun (spec, align) ->
      check_bool "spec shape" true (Shape.equal (Tensor.shape spec) [| 2; 1; 16; 8 |]);
      check_bool "align shape" true (Shape.equal (Tensor.shape align) [| 8 |]);
      for i = 0 to 7 do
        let v = int_of_float (Tensor.get1 align i) in
        check_bool "class range" true (v >= 0 && v < 5)
      done)
    batches

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "optimizer",
      [
        t "sgd step" test_sgd_step;
        t "momentum accumulates" test_momentum_accumulates;
        t "adam step" test_adam_direction_and_magnitude;
        t "missing gradient" test_missing_gradient_raises;
        t "clipping" test_clipping;
        t "footprint kinds" test_footprint_kinds;
        t "entry points agree" test_entry_points_agree;
        t "clip into buffers" test_clip_into_agrees;
      ] );
    ( "loop",
      [
        t "converges" test_loop_converges;
        t "on_step callback" test_loop_on_step_callback;
        t "perplexity" test_perplexity;
        t "caller params untouched" test_loop_leaves_caller_params;
      ] );
    ( "corpus",
      [
        t "deterministic" test_corpus_deterministic;
        t "token range" test_corpus_token_range;
        t "zipf head heavy" test_corpus_zipf_head_heavy;
        t "lm batches shift" test_lm_batches_shift;
        t "lm batches too short" test_lm_batches_too_short;
        t "pair batches" test_pair_batches_shapes;
        t "spectrogram batches" test_spectrogram_batches;
      ] );
  ]
