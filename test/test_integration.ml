(* End-to-end integration: full models differentiated, rewritten by the Echo
   pass, trained on synthetic data — confirming the paper's correctness
   claim (bit-identical training) and the footprint/overhead direction on
   real model graphs. *)

open Echo_tensor
open Echo_ir
open Echo_models
open Echo_core
open Echo_train
open Echo_workloads

let check_bool = Alcotest.(check bool)
let dev = Echo_gpusim.Device.titan_xp

let tiny_lm_cfg =
  {
    Language_model.ptb_default with
    vocab = 80;
    embed = 16;
    hidden = 16;
    layers = 2;
    seq_len = 8;
    batch = 4;
    dropout = 0.2;
  }

let lm_batches lm steps =
  let stream = Corpus.generate ~seed:42 ~vocab:lm.Language_model.cfg.Language_model.vocab ~length:30_000 in
  List.map
    (fun (tokens, labels) ->
      [ (lm.Language_model.token_input, tokens);
        (lm.Language_model.label_input, labels) ])
    (Corpus.lm_batches stream
       ~batch:lm.Language_model.cfg.Language_model.batch
       ~seq_len:lm.Language_model.cfg.Language_model.seq_len ~steps)

let train_losses lm graph steps =
  let optimizer = Optimizer.create (Optimizer.Sgd { lr = 0.5 }) in
  let result =
    Loop.train ~graph
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer ~clip_norm:5.0 ~batches:(lm_batches lm steps) ()
  in
  result.Loop.losses

let test_lm_trains_identically_under_every_policy () =
  let lm = Language_model.build tiny_lm_cfg in
  let training = Model.training lm.Language_model.model in
  let graph = training.Echo_autodiff.Grad.graph in
  let steps = 8 in
  let base = train_losses lm graph steps in
  List.iter
    (fun planner ->
      let rewritten, _ = Pass.run_instance ~device:dev planner graph in
      let losses = train_losses lm rewritten steps in
      List.iter2
        (fun a b ->
          check_bool (Planner.label planner ^ " loss identical") true (a = b))
        base losses)
    [
      Planner.instantiate "mirror-all-cheap";
      Planner.instantiate "checkpoint-sqrt";
      Planner.instantiate ~knobs:[ ("budget", 0.1) ] "echo";
      Planner.instantiate "recompute-all";
    ]

let test_lm_learns () =
  let lm = Language_model.build tiny_lm_cfg in
  let training = Model.training lm.Language_model.model in
  let steps = 25 in
  let losses = train_losses lm training.Echo_autodiff.Grad.graph steps in
  let first = List.nth losses 0 and last = List.nth losses (steps - 1) in
  check_bool "perplexity falls" true (Loop.perplexity last < Loop.perplexity first)

let test_lm_whole_model_gradcheck () =
  (* Numerical check of the full LM gradient on a minuscule config. *)
  let cfg =
    {
      tiny_lm_cfg with
      Language_model.vocab = 12;
      embed = 3;
      hidden = 3;
      layers = 1;
      seq_len = 3;
      batch = 2;
      dropout = 0.3;
    }
  in
  let lm = Language_model.build cfg in
  let rng = Rng.create 17 in
  let ids n = Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 12)) in
  let feeds =
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  match
    Echo_compiler.Gradcheck.check ~tol:1e-4 ~loss:lm.Language_model.model.Model.loss
      ~feeds
      ~wrt:(Params.variables lm.Language_model.model.Model.params)
      ()
  with
  | Ok _ -> ()
  | Error failures ->
    Alcotest.failf "LM gradcheck failed on %s"
      (String.concat ", " (List.map (fun r -> r.Echo_compiler.Gradcheck.param) failures))

let semantic_check ?(id_bound = 20) model planners =
  let training = Model.training model in
  let graph = training.Echo_autodiff.Grad.graph in
  let rng = Rng.create 3 in
  let feeds =
    List.map
      (fun node ->
        let bound = id_bound in
        match Shape.rank (Node.shape node) with
        | 4 -> (node, Tensor.normal rng (Node.shape node) ~mean:0.0 ~std:1.0)
        | _ ->
          (node, Tensor.init (Node.shape node) (fun _ -> float_of_int (Rng.int rng bound))))
      model.Model.placeholders
    @ Params.bindings model.Model.params
  in
  let baseline = Echo_exec.Interp.eval graph ~feeds in
  List.iter
    (fun planner ->
      let rewritten, _ = Pass.run_instance ~device:dev planner graph in
      let outputs = Echo_exec.Interp.eval rewritten ~feeds in
      check_bool
        (model.Model.name ^ "/" ^ Planner.label planner)
        true
        (List.for_all2 Tensor.equal baseline outputs))
    planners

let quick_planners =
  [
    Planner.instantiate "checkpoint-sqrt";
    Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo";
  ]

let test_nmt_semantics_preserved () =
  let nmt =
    Nmt.build
      {
        Nmt.gnmt_like with
        src_vocab = 20;
        tgt_vocab = 20;
        embed = 6;
        hidden = 6;
        enc_layers = 1;
        dec_layers = 1;
        src_len = 3;
        tgt_len = 3;
        batch = 2;
        dropout = 0.1;
      }
  in
  semantic_check nmt.Nmt.model quick_planners

let test_ds2_semantics_preserved () =
  let ds2 =
    Deepspeech.build
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
      }
  in
  semantic_check ~id_bound:5 ds2.Deepspeech.model quick_planners

let test_transformer_semantics_preserved () =
  let tr =
    Transformer.build
      {
        Transformer.base_like with
        vocab = 20;
        seq_len = 4;
        batch = 2;
        d_model = 8;
        heads = 2;
        d_ff = 12;
        layers = 1;
        dropout = 0.1;
      }
  in
  semantic_check tr.Transformer.model quick_planners

let test_footprint_direction_on_models () =
  (* On every zoo model (at small scale) Echo must not increase the peak and
     checkpointing must cut the stash. *)
  let models =
    [
      (Language_model.build tiny_lm_cfg).Language_model.model;
      (Nmt.build
         {
           Nmt.gnmt_like with
           src_vocab = 30;
           tgt_vocab = 30;
           embed = 8;
           hidden = 8;
           enc_layers = 2;
           dec_layers = 2;
           src_len = 5;
           tgt_len = 5;
           batch = 4;
         })
        .Nmt.model;
    ]
  in
  List.iter
    (fun model ->
      let graph = (Model.training model).Echo_autodiff.Grad.graph in
      let _, echo =
        Pass.run_instance ~device:dev
          (Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo")
          graph
      in
      check_bool (model.Model.name ^ " echo no regression") true
        (Pass.reduction echo >= 1.0);
      check_bool (model.Model.name ^ " echo overhead bounded") true
        (Pass.overhead echo <= 0.25))
    models

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "integration",
      [
        t "LM trains identically under every policy"
          test_lm_trains_identically_under_every_policy;
        t "LM learns" test_lm_learns;
        t "LM whole-model gradcheck" test_lm_whole_model_gradcheck;
        t "NMT semantics preserved" test_nmt_semantics_preserved;
        t "DS2 semantics preserved" test_ds2_semantics_preserved;
        t "Transformer semantics preserved" test_transformer_semantics_preserved;
        t "footprint direction on models" test_footprint_direction_on_models;
      ] );
  ]
