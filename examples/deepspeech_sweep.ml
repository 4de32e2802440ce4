(* DeepSpeech2 generality check: Echo on a conv + bidirectional-LSTM speech
   model. Convolution feature maps are expensive to recompute (the pass must
   leave them alone or spend real budget), while the biLSTM stash behaves
   like the NMT encoder — this exercises the cost-benefit analysis on a
   mixed graph.

   Run with: dune exec examples/deepspeech_sweep.exe *)

open Echo_models
open Echo_core
module Pipeline = Echo_compiler.Pipeline

let () =
  let device = Echo_gpusim.Device.titan_xp in
  List.iter
    (fun (label, cfg) ->
      let ds2 = Deepspeech.build cfg in
      let optimized =
        Pipeline.of_model ds2.Deepspeech.model |> Pipeline.differentiate
        |> Pipeline.optimize ~enabled:false
      in
      Format.printf "=== %s (%d output frames) ===@." label ds2.Deepspeech.out_frames;
      List.iter
        (fun planner ->
          let rw = Pipeline.rewrite ~device ~planner optimized in
          Format.printf "  %a@." Pass.pp_report rw.Pipeline.report)
        [
          Planner.instantiate "stash-all";
          Planner.instantiate "checkpoint-sqrt";
          Planner.instantiate ~knobs:[ ("budget", 0.03) ] "echo";
          Planner.instantiate ~knobs:[ ("budget", 0.30) ] "echo";
        ];
      Format.printf "@.")
    [
      ("ds2-small (3 x biLSTM-400)",
       { Deepspeech.ds2_like with rnn_layers = 3; rnn_hidden = 400; time = 64 });
      ("ds2 (5 x biLSTM-800)", Deepspeech.ds2_like);
    ]
