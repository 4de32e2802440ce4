(* Policy explorer: train the same small LSTM LM under the stash-all
   baseline and under Echo, and confirm that (a) the per-step losses are
   exactly identical (the rewrite preserves training semantics bit for bit)
   and (b) perplexity falls on the synthetic Zipf-Markov corpus — while the
   Echo graph needs less simulated GPU memory.

   Run with: dune exec examples/policy_explorer.exe *)

open Echo_models
open Echo_core
open Echo_train
open Echo_workloads
module Pipeline = Echo_compiler.Pipeline

let () =
  let cfg =
    {
      Language_model.ptb_default with
      vocab = 120;
      embed = 32;
      hidden = 32;
      layers = 2;
      seq_len = 12;
      batch = 8;
      dropout = 0.2;
    }
  in
  let lm = Language_model.build cfg in
  let training = Pipeline.differentiate (Pipeline.of_model lm.Language_model.model) in
  let graph = training.Pipeline.autodiff.Echo_autodiff.Grad.graph in
  let device = Echo_gpusim.Device.titan_xp in
  let rw =
    Pipeline.rewrite ~device
      ~planner:(Planner.instantiate ~knobs:[ ("budget", 0.10) ] "echo")
      (Pipeline.optimize ~enabled:false training)
  in
  let echo_graph = rw.Pipeline.graph in
  Format.printf "%a@.@." Pass.pp_report rw.Pipeline.report;

  let stream = Corpus.generate ~seed:99 ~vocab:cfg.vocab ~length:60_000 in
  let steps = 30 in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [ (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels) ])
      (Corpus.lm_batches stream ~batch:cfg.batch ~seq_len:cfg.seq_len ~steps)
  in
  let run g =
    let optimizer = Optimizer.create (Optimizer.Sgd { lr = 0.5 }) in
    Loop.train ~graph:g
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer ~clip_norm:5.0 ~batches ()
  in
  let base = run graph in
  let echo = run echo_graph in
  let max_diff =
    List.fold_left2
      (fun acc a b -> Float.max acc (Float.abs (a -. b)))
      0.0 base.Loop.losses echo.Loop.losses
  in
  let first = List.nth base.Loop.losses 0 in
  let last = List.nth base.Loop.losses (steps - 1) in
  Format.printf "steps=%d  ppl %.1f -> %.1f  max |loss(base)-loss(echo)| = %g@."
    steps (Loop.perplexity first) (Loop.perplexity last) max_diff;
  assert (max_diff = 0.0);
  assert (last < first);
  Format.printf "Echo trains bit-identically to the baseline, and learning happens.@."
