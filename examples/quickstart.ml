(* Quickstart: lower a small LSTM language model through the full staged
   compilation pipeline — source -> training -> optimized -> rewritten ->
   planned -> fused -> executable — and verify that the compiled slot-based
   executor
   (a) computes bitwise-identical results to the reference interpreter and
   (b) the Echo rewrite needs less simulated GPU memory.

   Run with: dune exec examples/quickstart.exe *)

open Echo_tensor
open Echo_ir
open Echo_models
open Echo_core
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor

let synthetic_feeds (lm : Language_model.t) =
  let rng = Rng.create 1234 in
  let ids node =
    Tensor.init (Node.shape node) (fun _ ->
      float_of_int (Rng.int rng lm.cfg.vocab))
  in
  [ (lm.token_input, ids lm.token_input); (lm.label_input, ids lm.label_input) ]
  @ Params.bindings lm.model.Model.params

let () =
  let cfg =
    {
      Language_model.ptb_default with
      vocab = 300;
      embed = 48;
      hidden = 48;
      seq_len = 16;
      batch = 8;
      layers = 2;
      dropout = 0.25;
    }
  in
  let lm = Language_model.build cfg in
  Format.printf "model: %a@." Model.describe lm.model;

  (* Stage by stage, each an inspectable value. *)
  let training = Pipeline.differentiate (Pipeline.of_model lm.model) in
  let graph = training.Pipeline.autodiff.Echo_autodiff.Grad.graph in
  Format.printf "training graph: %a@." Graph.pp_stats graph;

  let device = Echo_gpusim.Device.titan_xp in
  let feeds = synthetic_feeds lm in
  let baseline_outputs = Echo_exec.Interp.eval graph ~feeds in
  let optimized = Pipeline.optimize ~enabled:false training in

  (* The kernel runtime every compiled executor below partitions work over.
     Sized by ECHO_DOMAINS (default: the machine's recommended count);
     results are bit-identical at any domain count, which the comparison
     against the sequential interpreter exercises for real here. *)
  let runtime = Parallel.default () in
  Format.printf "kernel runtime: %d domain(s)@." (Parallel.domains runtime);

  Format.printf "@.%-18s %-30s %-8s %-24s %s@." "policy" "footprint" "factor"
    "sim time/iter" "bitwise-equal";
  List.iter
    (fun planner ->
      let exe =
        Pipeline.rewrite ~device ~planner optimized |> Pipeline.plan
        |> Pipeline.fuse |> Pipeline.compile ~runtime
      in
      let report =
        (Pipeline.planned_of exe).Pipeline.rewritten.Pipeline.report
      in
      (* The rewritten graph runs through the compiled slot-based executor;
         the unrewritten baseline ran through the reference interpreter. *)
      let outputs = Executor.eval (Pipeline.executor exe) ~feeds in
      let equal = List.for_all2 Tensor.equal baseline_outputs outputs in
      Format.printf "%-18s %12s -> %-12s %5.2fx  %8.2f -> %8.2f ms  %b@."
        report.Pass.planner
        (Echo_exec.Footprint.human
           report.Pass.baseline_mem.Echo_exec.Memplan.live_peak_bytes)
        (Echo_exec.Footprint.human
           report.Pass.optimised_mem.Echo_exec.Memplan.live_peak_bytes)
        (Pass.reduction report)
        (1000.0 *. report.Pass.baseline_time_s)
        (1000.0 *. report.Pass.optimised_time_s)
        equal;
      assert equal)
    Pass.default_instances;

  (* The executable stage in one call, with its per-stage summary. *)
  let exe = Pipeline.compile_source ~device ~optimize:false
      ~planner:(Planner.instantiate ~knobs:[ ("budget", 0.10) ] "echo")
      (Pipeline.of_model lm.model)
  in
  Format.printf "@.%a@." Pipeline.describe exe;
  Format.printf
    "@.All policies preserved training semantics exactly — compiled executor \
     matches the interpreter bit for bit.@."
