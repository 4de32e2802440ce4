(* Additional coverage: interpreter dispatch for less-travelled operators,
   pass/ladder behaviour, profiler on rewritten graphs, and idempotence
   properties of the optimisation passes. *)

open Echo_tensor
open Echo_ir
open Echo_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let dev = Echo_gpusim.Device.titan_xp

(* Interpreter dispatch *)

let eval1 node feeds = List.hd (Interp.eval (Graph.create [ node ]) ~feeds)

let test_interp_scale_by () =
  let x = Node.placeholder [| 3 |] in
  let s = Node.const_fill 2.5 Shape.scalar in
  let y = Node.scale_by x s in
  let out = eval1 y [ (x, Tensor.of_list1 [ 1.; 2.; 4. ]) ] in
  check_bool "scaled" true (Tensor.equal out (Tensor.of_list1 [ 2.5; 5.; 10. ]))

let test_interp_pow_recip_sign () =
  let x = Node.placeholder [| 3 |] in
  let feeds = [ (x, Tensor.of_list1 [ 4.0; 1.0; 0.25 ]) ] in
  check_bool "pow" true
    (Tensor.approx_equal (eval1 (Node.pow_const 0.5 x) feeds)
       (Tensor.of_list1 [ 2.0; 1.0; 0.5 ]));
  check_bool "recip" true
    (Tensor.approx_equal (eval1 (Node.recip x) feeds)
       (Tensor.of_list1 [ 0.25; 1.0; 4.0 ]));
  check_bool "sign" true
    (Tensor.equal (eval1 (Node.sign (Node.add_scalar (-1.0) x)) feeds)
       (Tensor.of_list1 [ 1.0; 0.0; -1.0 ]))

let test_interp_embedding_grad_dispatch () =
  let ids = Node.placeholder [| 2 |] in
  let grad = Node.placeholder [| 2; 2 |] in
  let g = Node.embedding_grad ~vocab:3 ~ids ~grad_out:grad in
  let out =
    eval1 g
      [ (ids, Tensor.of_list1 [ 2.; 2. ]);
        (grad, Tensor.of_list2 [ [ 1.; 1. ]; [ 2.; 2. ] ]) ]
  in
  check_bool "accumulated at row 2" true
    (Tensor.equal out (Tensor.of_list2 [ [ 0.; 0. ]; [ 0.; 0. ]; [ 3.; 3. ] ]))

let test_interp_conv_grads_dispatch () =
  let input = Node.placeholder [| 1; 1; 3; 3 |] in
  let kernel = Node.placeholder [| 1; 1; 2; 2 |] in
  let y = Node.conv2d ~stride:1 ~pad:0 ~input ~kernel in
  let training =
    (* conv grads only exist via autodiff; drive them through eval_node *)
    Node.inputs y
  in
  ignore training;
  let rng = Rng.create 4 in
  let iv = Tensor.uniform rng [| 1; 1; 3; 3 |] ~lo:(-1.0) ~hi:1.0 in
  let kv = Tensor.uniform rng [| 1; 1; 2; 2 |] ~lo:(-1.0) ~hi:1.0 in
  let gi =
    Interp.eval_node
      (Op.Conv2dGradInput { stride = 1; pad = 0; input_shape = [| 1; 1; 3; 3 |] })
      [| 1; 1; 3; 3 |]
      [ kv; Tensor.ones [| 1; 1; 2; 2 |] ]
  in
  check_bool "grad input shape" true (Shape.equal (Tensor.shape gi) [| 1; 1; 3; 3 |]);
  let gk =
    Interp.eval_node
      (Op.Conv2dGradKernel { stride = 1; pad = 0; kernel_shape = [| 1; 1; 2; 2 |] })
      [| 1; 1; 2; 2 |]
      [ iv; Tensor.ones [| 1; 1; 2; 2 |] ]
  in
  check_bool "grad kernel shape" true (Shape.equal (Tensor.shape gk) [| 1; 1; 2; 2 |])

let test_interp_rejects_variable_node () =
  check_bool "raises" true
    (try
       ignore (Interp.eval_node Op.Variable [| 2 |] []);
       false
     with Invalid_argument _ -> true)

(* Rng.uniform bounds *)

let test_rng_uniform_bounds () =
  let rng = Rng.create 31 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng ~lo:(-3.0) ~hi:(-1.0) in
    check_bool "in range" true (v >= -3.0 && v < -1.0)
  done

(* Pass / ladder *)

let small_training () =
  let open Echo_models in
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 70;
        embed = 16;
        hidden = 16;
        layers = 2;
        seq_len = 8;
        batch = 4;
        dropout = 0.2;
      }
  in
  (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph

let echo budget =
  Echo_core.Planner.instantiate ~knobs:[ ("budget", budget) ] "echo"

let test_echo_larger_budget_never_worse_than_noop () =
  let graph = small_training () in
  List.iter
    (fun b ->
      let _, r =
        Echo_core.Pass.run_instance ~device:dev (echo b) graph
      in
      check_bool "no regression at any budget" true (Echo_core.Pass.reduction r >= 1.0))
    [ 0.005; 0.02; 0.08; 0.4; 1.0 ]

let test_echo_cheap_only_sound () =
  (* Greedy selection is not monotone in its candidate set, so cheap-only may
     occasionally out-reduce full Echo; what must hold is that both ship
     non-regressing plans and cheap-only stays within its overhead budget. *)
  let graph = small_training () in
  let _, cheap =
    Echo_core.Pass.run_instance ~device:dev
      (Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo-cheap")
      graph
  in
  let _, full =
    Echo_core.Pass.run_instance ~device:dev (echo 0.2) graph
  in
  check_bool "cheap-only no regression" true (Echo_core.Pass.reduction cheap >= 1.0);
  check_bool "full no regression" true (Echo_core.Pass.reduction full >= 1.0);
  check_bool "cheap-only overhead within budget" true
    (Echo_core.Pass.overhead cheap <= 0.2 +. 1e-9)

let test_timeline_clones_in_backward_lane () =
  let graph = small_training () in
  let rewritten, _ =
    Echo_core.Pass.run_instance ~device:dev (echo 0.3) graph
  in
  let tl = Echo_gpusim.Timeline.simulate dev rewritten in
  let clone_events =
    List.filter
      (fun e ->
        let n = e.Echo_gpusim.Timeline.name in
        String.length n >= 2 && String.sub n (String.length n - 2) 2 = "~r")
      (Echo_gpusim.Timeline.events tl)
  in
  check_bool "clones exist" true (clone_events <> []);
  List.iter
    (fun e ->
      check_bool "clone in backward lane" true
        (e.Echo_gpusim.Timeline.region = Node.Backward))
    clone_events

(* Optimisation pass idempotence *)

let test_cse_idempotent () =
  let graph = small_training () in
  let once = Echo_opt.Cse.run graph in
  let twice = Echo_opt.Cse.run once in
  check_int "fixed point" (Graph.node_count once) (Graph.node_count twice)

let test_pipeline_idempotent () =
  let graph = small_training () in
  let g1, _ = Echo_opt.Pipeline.run graph in
  let g2, stats = Echo_opt.Pipeline.run g1 in
  check_int "fixed point" (Graph.node_count g1) (Graph.node_count g2);
  check_int "nothing folded on second run" 0 stats.Echo_opt.Pipeline.folded

(* Device profiles sanity *)

let test_device_profiles_ordered () =
  let txp = Echo_gpusim.Device.titan_xp and v100 = Echo_gpusim.Device.v100 in
  check_bool "v100 faster" true
    (v100.Echo_gpusim.Device.peak_flops > txp.Echo_gpusim.Device.peak_flops);
  check_bool "v100 more bandwidth" true
    (v100.Echo_gpusim.Device.bandwidth > txp.Echo_gpusim.Device.bandwidth);
  (* same graph is faster on the faster device *)
  let graph = small_training () in
  check_bool "simulated speedup" true
    (Echo_gpusim.Costmodel.graph_time v100 graph
    < Echo_gpusim.Costmodel.graph_time txp graph)

let test_selection_device_sensitivity () =
  (* Budgets are fractions of iteration time, so a faster device changes the
     absolute budget; selection must stay within it on both devices. *)
  let graph = small_training () in
  List.iter
    (fun device ->
      let sel = Echo_core.Select.echo device graph ~overhead_budget:0.1 in
      let t0 = Echo_gpusim.Costmodel.graph_time device graph in
      check_bool "budget respected" true
        (sel.Echo_core.Select.claimed_cost_s <= (0.1 *. t0) +. 1e-12))
    [ Echo_gpusim.Device.titan_xp; Echo_gpusim.Device.v100 ]

let test_interp_shapes_agree_with_inference () =
  (* Every value the interpreter produces must have exactly the shape the
     static inference promised — over a full LM training graph. *)
  let open Echo_models in
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 10;
        hidden = 10;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.3;
      }
  in
  let graph = (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph in
  let rng = Rng.create 55 in
  let ids n = Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 40)) in
  let feeds =
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  let values = Interp.eval_all graph ~feeds in
  List.iter
    (fun n ->
      let v = Hashtbl.find values (Node.id n) in
      check_bool (Node.name n) true (Shape.equal (Tensor.shape v) (Node.shape n)))
    (Graph.nodes graph)

let test_unroll_distinct_dropout_masks () =
  (* Standard (non-variational) dropout: each timestep and layer must get an
     independent mask, i.e. distinct seeds. *)
  let open Echo_models in
  let params = Params.create ~seed:61 in
  let cfg =
    { Recurrent.kind = Recurrent.Lstm; input_dim = 4; hidden = 4; layers = 2;
      dropout = 0.5; seed = 9 }
  in
  let xs = List.init 3 (fun _ -> Node.placeholder [| 2; 4 |]) in
  ignore (Recurrent.unroll params "rnn" cfg ~batch:2 ~xs);
  ignore params;
  (* collect every DropoutMask seed reachable from a fresh unroll *)
  let params2 = Params.create ~seed:62 in
  let tops = Recurrent.unroll params2 "rnn" cfg ~batch:2 ~xs in
  let g = Graph.create [ List.hd (List.rev tops) ] in
  let seeds =
    List.filter_map
      (fun n ->
        match Node.op n with
        | Op.DropoutMask { seed; _ } -> Some seed
        | _ -> None)
      (Graph.nodes g)
  in
  check_bool "several masks" true (List.length seeds >= 4);
  check_int "all seeds distinct" (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

(* Tensor odds and ends *)

let test_outer_and_scalar () =
  let a = Tensor.of_list1 [ 2.0 ] and b = Tensor.of_list1 [ 3.0; 4.0 ] in
  check_bool "outer row" true
    (Tensor.equal (Tensor.outer a b) (Tensor.of_list2 [ [ 6.0; 8.0 ] ]));
  check_float "scalar roundtrip" 7.5 (Tensor.get1 (Tensor.scalar 7.5) 0)

let test_tensor_to_string_truncates () =
  let t = Tensor.zeros [| 100 |] in
  let s = Tensor.to_string t in
  check_bool "short" true (String.length s < 200)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "interp.extra",
      [
        t "scale_by" test_interp_scale_by;
        t "pow/recip/sign" test_interp_pow_recip_sign;
        t "embedding grad dispatch" test_interp_embedding_grad_dispatch;
        t "conv grads dispatch" test_interp_conv_grads_dispatch;
        t "rejects variable" test_interp_rejects_variable_node;
        t "rng uniform bounds" test_rng_uniform_bounds;
      ] );
    ( "pass.extra",
      [
        t "no regression at any budget" test_echo_larger_budget_never_worse_than_noop;
        t "cheap-only sound" test_echo_cheap_only_sound;
        t "clones in backward lane" test_timeline_clones_in_backward_lane;
      ] );
    ( "opt.extra",
      [
        t "cse idempotent" test_cse_idempotent;
        t "pipeline idempotent" test_pipeline_idempotent;
      ] );
    ( "gpusim.extra",
      [
        t "device profiles ordered" test_device_profiles_ordered;
        t "selection device sensitivity" test_selection_device_sensitivity;
      ] );
    ( "consistency",
      [
        t "interp shapes agree with inference" test_interp_shapes_agree_with_inference;
        t "distinct dropout masks per step" test_unroll_distinct_dropout_masks;
      ] );
    ( "tensor.extra",
      [
        t "outer and scalar" test_outer_and_scalar;
        t "to_string truncates" test_tensor_to_string_truncates;
      ] );
  ]
