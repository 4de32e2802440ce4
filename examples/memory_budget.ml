(* Memory-budget autotuning: "make this model fit in X memory with the least
   recomputation overhead" — the runtime-tool direction the Echo authors
   describe. The autotuner escalates the overhead budget until the measured
   peak fits, and reports which plan it shipped.

   Run with: dune exec examples/memory_budget.exe *)

open Echo_models
open Echo_core
open Echo_exec
module Pipeline = Echo_compiler.Pipeline

let () =
  let device = Echo_gpusim.Device.titan_xp in
  let nmt = Nmt.build { Nmt.gnmt_like with Nmt.batch = 64 } in
  let planned =
    Pipeline.of_model nmt.Nmt.model |> Pipeline.differentiate
    |> Pipeline.optimize ~enabled:false |> Pipeline.rewrite ~device
    |> Pipeline.plan
  in
  let graph = planned.Pipeline.graph in
  let baseline = planned.Pipeline.memplan.Memplan.live_peak_bytes in
  Format.printf "baseline peak: %s@.@." (Footprint.human baseline);
  List.iter
    (fun frac ->
      let target = int_of_float (frac *. float_of_int baseline) in
      match Autotune.for_memory_target ~device graph ~target_bytes:target with
      | Some outcome ->
        Format.printf
          "target %4.0f%% (%9s): shipped %-12s peak %9s at %+5.1f%% overhead@."
          (100.0 *. frac) (Footprint.human target)
          outcome.Autotune.report.Pass.planner
          (Footprint.human
             outcome.Autotune.report.Pass.optimised_mem.Memplan.live_peak_bytes)
          (100.0 *. Pass.overhead outcome.Autotune.report)
      | None ->
        Format.printf "target %4.0f%%: infeasible — even recompute-heavy plans exceed it@."
          (100.0 *. frac))
    [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5 ]
