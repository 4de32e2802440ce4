(* The staged compilation pipeline and the slot-based executor.

   The load-bearing properties: the compiled executor is bitwise identical
   to the reference interpreter (on random DAGs and on real model training
   graphs), its steady-state footprint equals the memory planner's
   prediction, and repeated runs with fresh feeds never leak state from a
   previous step. *)

open Echo_tensor
open Echo_ir
open Echo_models
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor

let check_bool = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Feeds for every placeholder and variable of a graph: positive values so
   random op chains stay finite and NaN-free. *)
let synthetic_feeds ?(scale = 1.0) rng_seed g =
  let rng = Rng.create rng_seed in
  List.filter_map
    (fun node ->
      match Node.op node with
      | Op.Placeholder | Op.Variable ->
        Some
          ( node,
            Tensor.init (Node.shape node) (fun _ ->
                scale *. (0.1 +. (0.9 *. Rng.float rng))) )
      | _ -> None)
    (Graph.nodes g)

let eval_both g ~feeds =
  let exe = Executor.compile g in
  (Echo_exec.Interp.eval g ~feeds, Executor.eval exe ~feeds)

(* Property: on random square-shaped DAGs (including all four matmul
   transpose variants), the executor matches the interpreter bitwise on two
   consecutive runs with different feeds, and its footprint equals the
   planner's arena prediction. *)
let prop_executor_differential =
  QCheck.Test.make ~name:"executor == interpreter on random DAGs" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pool = ref [ Node.placeholder [| 4; 4 |]; Node.variable [| 4; 4 |] ] in
      for _ = 1 to 25 do
        let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
        let n =
          match Rng.int rng 10 with
          | 0 -> Node.add (pick ()) (pick ())
          | 1 -> Node.sub (pick ()) (pick ())
          | 2 -> Node.mul (pick ()) (pick ())
          | 3 -> Node.tanh_ (pick ())
          | 4 -> Node.sigmoid (pick ())
          | 5 -> Node.matmul (pick ()) (pick ())
          | 6 -> Node.matmul ~trans_a:true (pick ()) (pick ())
          | 7 -> Node.matmul ~trans_b:true (pick ()) (pick ())
          | 8 -> Node.matmul ~trans_a:true ~trans_b:true (pick ()) (pick ())
          | _ -> Node.transpose2d (pick ())
        in
        pool := n :: !pool
      done;
      let g = Graph.create [ List.hd !pool ] in
      let exe = Executor.compile g in
      let identical_run scale =
        let feeds = synthetic_feeds ~scale seed g in
        let reference = Echo_exec.Interp.eval g ~feeds in
        let compiled = Executor.eval exe ~feeds in
        List.for_all2 Tensor.equal reference compiled
      in
      (* Two runs with different feeds through the SAME executor: a buffer
         holding stale step-1 state would break the second comparison. *)
      identical_run 1.0 && identical_run 0.25
      && Executor.footprint_bytes exe
         = (Echo_exec.Memplan.plan g).Echo_exec.Memplan.arena_bytes)

(* Seeded feeds for a model: rank-4 placeholders (spectrograms) get normal
   values, every other placeholder ids below [id_bound]. *)
let model_feeds ?(id_bound = 20) ?(seed = 7) model =
  let rng = Rng.create seed in
  List.map
    (fun node ->
      match Shape.rank (Node.shape node) with
      | 4 -> (node, Tensor.normal rng (Node.shape node) ~mean:0.0 ~std:1.0)
      | _ ->
        (node,
         Tensor.init (Node.shape node) (fun _ ->
             float_of_int (Rng.int rng id_bound))))
    model.Model.placeholders
  @ Params.bindings model.Model.params

(* Model training graphs: compiled executor vs interpreter, bitwise. *)
let model_differential ?id_bound model =
  let training = Model.training model in
  let g = training.Echo_autodiff.Grad.graph in
  let feeds = model_feeds ?id_bound model in
  let reference, compiled = eval_both g ~feeds in
  check_bool (model.Model.name ^ " bit-identical") true
    (List.for_all2 Tensor.equal reference compiled);
  let exe = Executor.compile g in
  Alcotest.(check int)
    (model.Model.name ^ " footprint == plan")
    (Echo_exec.Memplan.plan g).Echo_exec.Memplan.arena_bytes
    (Executor.footprint_bytes exe)

let test_lm_differential () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  model_differential lm.Language_model.model

let test_nmt_differential () =
  let nmt =
    Nmt.build
      {
        Nmt.gnmt_like with
        src_vocab = 15;
        tgt_vocab = 15;
        embed = 4;
        hidden = 4;
        enc_layers = 1;
        dec_layers = 1;
        src_len = 3;
        tgt_len = 3;
        batch = 2;
        dropout = 0.1;
      }
  in
  model_differential ~id_bound:15 nmt.Nmt.model

let test_transformer_differential () =
  let tr =
    Transformer.build
      {
        Transformer.base_like with
        vocab = 15;
        seq_len = 4;
        batch = 2;
        d_model = 8;
        heads = 2;
        d_ff = 12;
        layers = 1;
        dropout = 0.1;
      }
  in
  model_differential ~id_bound:15 tr.Transformer.model

(* The test-size DeepSpeech2: its training graph runs the forward
   convolution and both convolution gradients. *)
let small_ds2 () =
  (Deepspeech.build
     {
       Deepspeech.ds2_like with
       batch = 1;
       time = 12;
       freq = 8;
       conv_channels = 2;
       rnn_hidden = 4;
       rnn_layers = 1;
       classes = 5;
       dropout = 0.0;
     })
    .Deepspeech.model

(* DS2 through the convolution kernels, against the interpreter. Two
   different feeds go through the SAME sanitized executor: a gradient
   kernel that accumulated onto its own previous step instead of
   zero-filling would break the second comparison, and the sanitizer checks
   every read against the plan's lifetimes. *)
let test_conv_differential () =
  let model = small_ds2 () in
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let exe = Executor.compile ~sanitize:Echo_analysis.Sanitize.Cells g in
  Alcotest.(check int)
    "footprint == plan"
    (Echo_exec.Memplan.plan g).Echo_exec.Memplan.arena_bytes
    (Executor.footprint_bytes exe);
  List.iter
    (fun seed ->
      let feeds = model_feeds ~id_bound:5 ~seed model in
      check_bool
        (Printf.sprintf "feed %d bit-identical" seed)
        true
        (List.for_all2 Tensor.equal
           (Echo_exec.Interp.eval g ~feeds)
           (Executor.eval exe ~feeds)))
    [ 7; 8 ];
  match Executor.sanitize_report exe with
  | Some report ->
    Alcotest.(check int) "sanitizer clean" 0 (Echo_diag.Report.error_count report)
  | None -> Alcotest.fail "compiled without the sanitizer"

(* The whole pipeline, stage by stage, on a real model — the executable's
   outputs must survive the Echo rewrite bit for bit, with the
   shadow-memory sanitizer checking every read against the plan's
   lifetimes. *)
let test_pipeline_stages_compose () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 30;
        embed = 6;
        hidden = 6;
        layers = 1;
        seq_len = 4;
        batch = 2;
        dropout = 0.2;
      }
  in
  let src = Pipeline.of_model lm.Language_model.model in
  let training = Pipeline.differentiate src in
  let g = training.Pipeline.autodiff.Echo_autodiff.Grad.graph in
  let rng = Rng.create 13 in
  let ids n =
    Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 30))
  in
  let feeds =
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  let reference = Echo_exec.Interp.eval g ~feeds in
  let exe =
    Pipeline.compile_source
      ~planner:(Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo")
      ~optimize:false ~sanitize:Echo_analysis.Sanitize.Cells src
  in
  let compiled = Executor.eval (Pipeline.executor exe) ~feeds in
  check_bool "echo-rewritten executable bit-identical" true
    (List.for_all2 Tensor.equal reference compiled);
  (* No read outlived its planned lifetime. *)
  match Executor.sanitize_report (Pipeline.executor exe) with
  | Some report ->
    Alcotest.(check int) "sanitizer clean" 0 (Echo_diag.Report.error_count report)
  | None -> Alcotest.fail "compiled without the sanitizer"

(* Kernel runtime differential: the same LM training graph — loss and all
   gradients — must come out bitwise identical from the interpreter and
   executors on pools of 1/2/4 domains. The comparison is on raw bits (not [Tensor.equal], whose structural compare
   conflates 0.0 with -0.0), and dropout puts real zeros in the
   activations so the a(i,l) = 0 skip is exercised. *)
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

(* What an executor compiled from its plan: fused groups, fused interiors
   and the arena. The fusion plan is a function of the graph alone, so
   every runtime a differential builds must compile the same one. *)
let plan_signature exe =
  ( Executor.fused_group_count exe,
    Executor.fused_interior_count exe,
    Executor.footprint_bytes exe )

let check_plan = Alcotest.(check (triple int int int))

let test_runtime_differential () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  let model = lm.Language_model.model in
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let rng = Rng.create 7 in
  let feeds =
    List.map
      (fun node ->
        ( node,
          Tensor.init (Node.shape node) (fun _ ->
              float_of_int (Rng.int rng 40)) ))
      model.Model.placeholders
    @ Params.bindings model.Model.params
  in
  (* Reference: the interpreter on its default runtime. *)
  let reference = Echo_exec.Interp.eval g ~feeds in
  let check_engine label outputs =
    check_bool label true (List.for_all2 bits_equal reference outputs)
  in
  (* One executor per domain count. Pools are oversubscribed past the
     hardware cap with the work gate open, so the fan-out path really
     executes even on one core. *)
  let plan = plan_signature (Executor.compile g) in
  List.iter
    (fun d ->
      let pool =
        Parallel.create ~domains:d ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let exe = Executor.compile ~runtime:pool g in
      check_plan (Printf.sprintf "%d-domain plan" d) plan (plan_signature exe);
      check_engine
        (Printf.sprintf "%d-domain executor" d)
        (Executor.eval exe ~feeds))
    [ 1; 2; 4 ]

(* Fused elementwise codegen: the fusion stage must be invisible in the
   results — bit-identical to the unfused executor at every domain count —
   and visible in the instruction stream and the arena. *)

let prop_fused_differential =
  QCheck.Test.make ~name:"fused == unfused on random elementwise DAGs"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pool = ref [ Node.placeholder [| 4; 4 |]; Node.variable [| 4; 4 |] ] in
      for _ = 1 to 30 do
        let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
        let n =
          match Rng.int rng 13 with
          | 0 -> Node.add (pick ()) (pick ())
          | 1 -> Node.sub (pick ()) (pick ())
          | 2 -> Node.mul (pick ()) (pick ())
          | 3 -> Node.neg (pick ())
          | 4 -> Node.sigmoid (pick ())
          | 5 -> Node.tanh_ (pick ())
          | 6 -> Node.relu (pick ())
          | 7 -> Node.sq (pick ())
          | 8 -> Node.scale 0.5 (pick ())
          | 9 -> Node.add_scalar 0.25 (pick ())
          | 10 -> Node.sqrt_ (Node.sq (pick ()))
          | 11 -> Node.div (pick ()) (Node.add_scalar 2.0 (Node.sq (pick ())))
          | _ -> Node.matmul (pick ()) (pick ())
        in
        pool := n :: !pool
      done;
      let g = Graph.create [ List.hd !pool ] in
      let fusion = Fuse.analyse g in
      let fused =
        Executor.compile ~plan:(Echo_exec.Memplan.plan ~fusion g) g
      in
      let unfused = Executor.compile g in
      let feeds = synthetic_feeds seed g in
      let a = Executor.eval fused ~feeds in
      let b = Executor.eval unfused ~feeds in
      List.for_all2 bits_equal a b
      && Executor.footprint_bytes fused
         = (Echo_exec.Memplan.plan ~fusion g).Echo_exec.Memplan.arena_bytes
      && Executor.fused_group_count fused = Fuse.group_count fusion
      && Executor.fused_interior_count fused = Fuse.interior_count fusion)

(* Real training graphs — loss and every gradient — fused vs unfused,
   sequential and at 1/2/4 domains, all on raw bits. *)
let fused_model_differential ?(id_bound = 20) model =
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let rng = Rng.create 11 in
  let feeds =
    List.map
      (fun node ->
        match Shape.rank (Node.shape node) with
        | 4 -> (node, Tensor.normal rng (Node.shape node) ~mean:0.0 ~std:1.0)
        | _ ->
          ( node,
            Tensor.init (Node.shape node) (fun _ ->
                float_of_int (Rng.int rng id_bound)) ))
      model.Model.placeholders
    @ Params.bindings model.Model.params
  in
  let eval exe = Executor.eval (Pipeline.executor exe) ~feeds in
  let reference = eval (Pipeline.compile_graph ~fuse:false g) in
  check_bool (model.Model.name ^ " has fusable chains") true
    (Fuse.group_count (Fuse.analyse g) > 0);
  let fused = Pipeline.compile_graph ~fuse:true g in
  let plan = plan_signature (Pipeline.executor fused) in
  check_bool (model.Model.name ^ " fused bit-identical") true
    (List.for_all2 bits_equal reference (eval fused));
  List.iter
    (fun d ->
      (* Oversubscribed past the hardware cap with the work gate open, so
         fused instructions genuinely partition rows across the pool even
         on a small machine. *)
      let pool =
        Parallel.create ~domains:d ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let exe = Pipeline.compile_graph ~fuse:true ~runtime:pool g in
      check_plan
        (Printf.sprintf "%s fused %d-domain plan" model.Model.name d)
        plan
        (plan_signature (Pipeline.executor exe));
      check_bool
        (Printf.sprintf "%s fused %d-domain bit-identical" model.Model.name d)
        true
        (List.for_all2 bits_equal reference (eval exe)))
    [ 1; 2; 4 ]

let test_fused_lm_differential () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  fused_model_differential lm.Language_model.model

let test_fused_nmt_differential () =
  let nmt =
    Nmt.build
      {
        Nmt.gnmt_like with
        src_vocab = 15;
        tgt_vocab = 15;
        embed = 4;
        hidden = 4;
        enc_layers = 1;
        dec_layers = 1;
        src_len = 3;
        tgt_len = 3;
        batch = 2;
        dropout = 0.1;
      }
  in
  fused_model_differential ~id_bound:15 nmt.Nmt.model

(* Group interiors never see the arena: the fused executor runs one
   instruction for the whole chain, its measured footprint equals the fused
   planner's prediction, and the planner's fused arena is strictly smaller
   than the unfused one once in-place transfers are taken out of the
   picture. *)
let test_fused_interiors_slotless () =
  let x = Node.placeholder [| 256 |] in
  let y = Node.sq (Node.tanh_ (Node.sigmoid (Node.neg x))) in
  let g = Graph.create [ y ] in
  let fusion = Fuse.analyse g in
  Alcotest.(check int) "one group" 1 (Fuse.group_count fusion);
  Alcotest.(check int) "three interiors" 3 (Fuse.interior_count fusion);
  Alcotest.(check int) "interior bytes" (3 * 256 * 4)
    (List.fold_left
       (fun acc g -> acc + Fuse.interior_bytes g)
       0 (Fuse.groups fusion));
  let exe = Executor.compile ~plan:(Echo_exec.Memplan.plan ~fusion g) g in
  Alcotest.(check int) "one active instruction" 1
    (Executor.active_instruction_count exe);
  Alcotest.(check int) "measured footprint == fused plan"
    (Echo_exec.Memplan.plan ~fusion g).Echo_exec.Memplan.arena_bytes
    (Executor.footprint_bytes exe);
  let arena ?fusion () =
    (Echo_exec.Memplan.plan ~inplace:false ?fusion g).Echo_exec.Memplan
      .arena_bytes
  in
  check_bool "interiors freed the arena" true (arena ~fusion () < arena ())

(* The cost models and the executor must agree on what got fused: the
   plan [Costmodel.fused_graph_time] and the autotuner price
   ([Fuse.analyse] of the graph) is the one the executor compiled. *)
let test_fusion_stats_match_executor () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  let g =
    (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph
  in
  let priced = Fuse.analyse g in
  let exe =
    Executor.compile
      ~plan:(Echo_exec.Memplan.plan ~fusion:(Fuse.analyse g) g)
      g
  in
  Alcotest.(check int) "group counts agree" (Fuse.group_count priced)
    (Executor.fused_group_count exe);
  Alcotest.(check int) "interior counts agree" (Fuse.interior_count priced)
    (Executor.fused_interior_count exe)

(* End to end through the training loop: the whole loss trajectory is
   bit-identical with the fusion stage on and off. *)
let test_fused_loss_trajectory () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  let model = lm.Language_model.model in
  let graph = (Model.training model).Echo_autodiff.Grad.graph in
  let params = Params.bindings model.Model.params in
  let rng = Rng.create 23 in
  let batches =
    List.init 4 (fun _ ->
        let ids n =
          Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 40))
        in
        [
          (lm.Language_model.token_input, ids lm.Language_model.token_input);
          (lm.Language_model.label_input, ids lm.Language_model.label_input);
        ])
  in
  let run fuse =
    (Echo_train.Loop.train ~graph ~params
       ~optimizer:
         (Echo_train.Optimizer.create (Echo_train.Optimizer.Sgd { lr = 0.5 }))
       ~clip_norm:5.0 ~faults:Echo_runtime.Fault.none ~fuse ~batches ())
      .Echo_train.Loop.losses
  in
  let fused = run true and unfused = run false in
  Alcotest.(check int) "same step count" (List.length unfused)
    (List.length fused);
  List.iter2
    (fun a b ->
      check_bool "loss bits identical" true
        (Int64.bits_of_float a = Int64.bits_of_float b))
    fused unfused

(* Missing feeds are reported all at once, by name, by both engines. *)
let test_missing_feeds_aggregated () =
  let a = Node.placeholder ~name:"tokens" [| 2 |] in
  let b = Node.placeholder ~name:"labels" [| 2 |] in
  let g = Graph.create [ Node.add a b ] in
  let both_named msg = contains ~sub:"tokens" msg && contains ~sub:"labels" msg in
  check_bool "interp lists both" true
    (try
       ignore (Echo_exec.Interp.eval g ~feeds:[]);
       false
     with Echo_exec.Interp.Missing_feed msg -> both_named msg);
  check_bool "executor lists both" true
    (try
       ignore (Executor.eval (Executor.compile g) ~feeds:[]);
       false
     with Echo_exec.Interp.Missing_feed msg -> both_named msg)

(* One feed rule: a node absent from the executor's graph (another build of
   the same structure, as a plan-cache hit serves) feeds the input that
   carries its name; a name no input carries is ignored; a name several
   inputs carry is refused. *)
let test_feed_by_name () =
  let build () =
    let x = Node.placeholder ~name:"x" [| 2 |] in
    let w = Node.variable ~name:"w" [| 2 |] in
    (x, w, Graph.create [ Node.mul x w ])
  in
  let x1, w1, g1 = build () in
  let x2, w2, _ = build () in
  let xv = Tensor.of_list1 [ 1.0; 2.0 ] and wv = Tensor.of_list1 [ 3.0; 5.0 ] in
  let reference = Echo_exec.Interp.eval g1 ~feeds:[ (x1, xv); (w1, wv) ] in
  let exe = Executor.compile g1 in
  Executor.feed exe x2 xv;
  Executor.feed exe w2 wv;
  Executor.feed exe
    (Node.placeholder ~name:"absent" [| 7 |])
    (Tensor.zeros [| 7 |]);
  Executor.run exe;
  check_bool "fed by name from a second build" true
    (List.for_all2 Tensor.equal reference
       (Array.to_list (Executor.outputs exe)));
  let a = Node.placeholder ~name:"dup" [| 2 |] in
  let b = Node.placeholder ~name:"dup" [| 2 |] in
  let exe = Executor.compile (Graph.create [ Node.add a b ]) in
  check_bool "ambiguous name raises" true
    (try
       Executor.feed exe (Node.placeholder ~name:"dup" [| 2 |]) xv;
       false
     with Invalid_argument msg -> contains ~sub:"dup" msg)

(* The slab offsets and the budget payload on a graph with in-place
   transfers (tanh and sigmoid into their matmul inputs), best-fit reuse
   (d and f take freed ranges; h picks the lower of two free same-size
   ranges) and a second value size. A refactor of the walk must reproduce
   these exactly. *)
let test_binding_and_budget_pinned () =
  let x = Node.placeholder ~name:"x" [| 4; 4 |] in
  let w = Node.variable ~name:"w" [| 4; 4 |] in
  let a = Node.matmul x w in
  let b = Node.tanh_ a in
  let s = Node.reduce_sum ~axis:0 ~keepdims:false b in
  let c = Node.matmul b w in
  let d = Node.matmul c w in
  let e = Node.sigmoid d in
  let f = Node.matmul x w in
  let ef = Node.matmul e f in
  let h = Node.matmul ef w in
  let g = Graph.create [ h; s ] in
  let exe = Executor.compile g in
  Alcotest.(check (list (pair int int)))
    "binding (node id, byte offset)"
    (List.map
       (fun (n, off) -> (Node.id n, off))
       [ (a, 0); (b, 0); (s, 64); (c, 80); (d, 0); (e, 0); (f, 80); (ef, 144);
         (h, 0) ])
    (List.map
       (fun s -> (s.Echo_exec.Assign.node_id, s.Echo_exec.Assign.offset))
       (Echo_exec.Assign.slots (Executor.offsets exe)));
  Alcotest.(check int) "footprint" 336 (Executor.footprint_bytes exe);
  (* The payload is the running total at the first slot that crosses the
     ceiling: persistent so far + the slab's high-water mark so far +
     workspace. *)
  List.iter
    (fun (budget, expected) ->
      let requested =
        match Executor.compile ~budget_bytes:budget g with
        | _ -> None
        | exception Executor.Budget_exceeded { requested_bytes; _ } ->
          Some requested_bytes
      in
      Alcotest.(check (option int))
        (Printf.sprintf "requested bytes under a %d B budget" budget)
        expected requested)
    [ (100, Some 128); (150, Some 192); (200, Some 208); (250, Some 272);
      (300, Some 336); (336, None) ]

(* Loop.train's arity error names both counts. *)
let test_train_arity_message () =
  let v = Node.variable ~name:"w" [| 2 |] in
  let extra = Node.variable ~name:"unused" [| 2 |] in
  let loss =
    Node.reduce_sum ~axis:0 ~keepdims:false (Node.sq v)
  in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ v ] in
  let params =
    [ (v, Tensor.of_list1 [ 1.0; 2.0 ]); (extra, Tensor.of_list1 [ 0.0; 0.0 ]) ]
  in
  check_bool "names both counts" true
    (try
       ignore
         (Echo_train.Loop.train ~graph:training.Echo_autodiff.Grad.graph
            ~params
            ~optimizer:(Echo_train.Optimizer.create (Echo_train.Optimizer.Sgd { lr = 0.1 }))
            ~batches:[ [] ] ());
       false
     with Invalid_argument msg ->
       contains ~sub:"1 gradient output(s)" msg
       && contains ~sub:"2 parameter(s)" msg)

(* The executor's allocation contract: after the first run has sized the
   per-domain pack and fusion scratch, a training step's kernels allocate
   nothing — every value lands in a preallocated arena buffer and every
   scalar stays unboxed. What remains is a fixed per-run overhead (the
   parallel-for chunk closures and the like). The graph is a peephole
   LSTM-LM step with 16x64 . 64x256 gate matmuls (and their gradients),
   so the GEMM kernel, the sigmoid kernel, the slice copies and the
   peephole broadcasts all run. Measured at 7_702 minor words per run (347
   instructions, about 22 words each); the bound
   of 10_000 leaves a 30% margin. Before the kernels were made
   allocation-free the same run took 163_075 words: a kernel that boxes
   one float per element costs 2 to 4 words per element, thousands per
   instruction here, so a returning boxing leak cannot hide under the
   bound.

   The second case is the test-size DeepSpeech2 step, which runs the three
   convolution kernels: measured at 8_251 minor words per run (354
   instructions), bound 11_000. While convolutions went through the
   interpreter and a blit, the same run took 96_684 words. *)
let words_per_run ~what ~bound exe =
  Executor.run exe;
  let runs = 4 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    Executor.run exe
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  Printf.printf "%s: minor words per run: %.0f (%d instructions)\n" what
    per_run
    (Executor.active_instruction_count exe);
  if per_run > bound then
    Alcotest.failf "%s: Executor.run allocated %.0f minor words (bound %.0f)"
      what per_run bound

let test_run_allocation_bound () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 50;
        embed = 64;
        hidden = 64;
        layers = 1;
        seq_len = 4;
        batch = 16;
        dropout = 0.2;
        cell = Recurrent.Peephole;
      }
  in
  let model = lm.Language_model.model in
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let runtime = Parallel.sequential in
  let has p = List.exists (fun n -> p (Node.op n) n) (Graph.nodes g) in
  List.iter
    (fun (what, p) -> check_bool what true (has (fun op _ -> p op)))
    [
      ("a matmul", function Op.Matmul _ -> true | _ -> false);
      ("a sigmoid", function Op.Sigmoid -> true | _ -> false);
      ("a broadcast", function Op.BroadcastAxis _ -> true | _ -> false);
      ("a slice", function Op.Slice _ -> true | _ -> false);
    ];
  (* The GEMM kernel and its pack scratch must not allocate. *)
  let exe =
    Pipeline.executor
      (Pipeline.compile_graph ~runtime ~fuse:true
         ~sanitize:Echo_analysis.Sanitize.Off g)
  in
  let rng = Rng.create 5 in
  let ids n =
    Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 50))
  in
  Executor.feed exe lm.Language_model.token_input
    (ids lm.Language_model.token_input);
  Executor.feed exe lm.Language_model.label_input
    (ids lm.Language_model.label_input);
  List.iter
    (fun (n, v) -> Executor.feed exe n v)
    (Params.bindings model.Model.params);
  words_per_run ~what:"LM" ~bound:10_000.0 exe;
  let ds2 = small_ds2 () in
  let exe =
    Pipeline.executor
      (Pipeline.compile_graph ~runtime ~fuse:true
         ~sanitize:Echo_analysis.Sanitize.Off
         (Model.training ds2).Echo_autodiff.Grad.graph)
  in
  List.iter
    (fun (n, v) -> Executor.feed exe n v)
    (model_feeds ~id_bound:5 ds2);
  words_per_run ~what:"DS2" ~bound:11_000.0 exe

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "compiler",
      [
        QCheck_alcotest.to_alcotest prop_executor_differential;
        t "LM training graph differential" test_lm_differential;
        t "NMT training graph differential" test_nmt_differential;
        t "transformer training graph differential" test_transformer_differential;
        t "DS2 conv differential" test_conv_differential;
        t "pipeline stages compose" test_pipeline_stages_compose;
        t "kernel runtime differential" test_runtime_differential;
        t "missing feeds aggregated" test_missing_feeds_aggregated;
        t "feed by name" test_feed_by_name;
        t "binding and budget pinned" test_binding_and_budget_pinned;
        t "train arity message" test_train_arity_message;
        t "run allocation bound" test_run_allocation_bound;
      ] );
    ( "compiler.fusion",
      [
        QCheck_alcotest.to_alcotest prop_fused_differential;
        t "LM fused differential" test_fused_lm_differential;
        t "NMT fused differential" test_fused_nmt_differential;
        t "interiors slotless" test_fused_interiors_slotless;
        t "stats match executor" test_fusion_stats_match_executor;
        t "loss trajectory fused == unfused" test_fused_loss_trajectory;
      ] );
  ]
