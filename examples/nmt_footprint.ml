(* NMT footprint study: the paper's headline workload. Builds the GNMT-like
   attention seq2seq model at increasing batch sizes and reports, per
   policy, the peak training footprint, the reduction factor, the simulated
   iteration overhead, and whether the configuration fits a Titan Xp
   (12 GiB).

   Run with: dune exec examples/nmt_footprint.exe *)

open Echo_models
open Echo_core
open Echo_exec
module Pipeline = Echo_compiler.Pipeline

let () =
  let device = Echo_gpusim.Device.titan_xp in
  let echo b = Planner.instantiate ~knobs:[ ("budget", b) ] "echo" in
  let planners =
    [
      Planner.instantiate "stash-all";
      Planner.instantiate "checkpoint-sqrt";
      echo 0.03;
      echo 0.10;
      echo 0.30;
    ]
  in
  Format.printf
    "NMT-with-attention (H=512, 4+4 layers, Tsrc=Ttgt=30) on %s (%.0f GiB)@.@."
    device.Echo_gpusim.Device.name
    (float_of_int device.Echo_gpusim.Device.memory_bytes /. (1024. ** 3.));
  List.iter
    (fun batch ->
      let cfg = { Nmt.gnmt_like with batch } in
      let nmt = Nmt.build cfg in
      let optimized =
        Pipeline.of_model nmt.Nmt.model |> Pipeline.differentiate
        |> Pipeline.optimize ~enabled:false
      in
      Format.printf "batch=%d:@." batch;
      List.iter
        (fun planner ->
          let report =
            (Pipeline.rewrite ~device ~planner optimized).Pipeline.report
          in
          let total =
            Footprint.total_bytes report.Pass.optimised_mem
              ~optimizer:Footprint.Momentum
          in
          Format.printf "  %-18s peak %-10s (%4.2fx)  +%4.1f%% time  %s@."
            report.Pass.planner (Footprint.human total) (Pass.reduction report)
            (100.0 *. Pass.overhead report)
            (if total <= device.Echo_gpusim.Device.memory_bytes then "fits"
             else "OOM");
          ())
        planners;
      Format.printf "@.")
    [ 32; 64; 128 ]
