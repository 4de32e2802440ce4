(** The Echo compiler pass: planner selection + rewrite + measurement.

    [run_instance] takes a training graph (forward + backward, as produced
    by [Echo_autodiff.Grad.differentiate]), applies a recomputation planner
    resolved through the {!Planner} registry, and measures both the baseline
    and the rewritten graph with the memory planner and the simulated-GPU
    cost model. Every reported number is measured on the actual graphs — the
    selection estimators can be wrong (see the ablations) without
    compromising the report. Strategies are named by their registry name
    ([Planner.instantiate ?knobs name]); a new one is added by registering
    a planner. *)

open Echo_ir
open Echo_gpusim

val default_instances : Planner.instance list
(** The comparison set used across benchmarks: stash-all, mirror-all-cheap,
    √n checkpointing, Echo (3% and 30% budgets), recompute-all. *)

type report = {
  planner : string;  (** {!Planner.label} of the planner that ran *)
  mirrored_nodes : int;  (** selected forward nodes *)
  clone_nodes : int;  (** recomputation clones materialised *)
  claimed_saving_bytes : int;
  claimed_cost_s : float;
  baseline_mem : Echo_exec.Memplan.report;
  optimised_mem : Echo_exec.Memplan.report;
  baseline_time_s : float;
  optimised_time_s : float;
}

val run_instance :
  device:Device.t -> Planner.instance -> Graph.t -> Graph.t * report
(** Returns the rewritten graph and the measurement report. The baseline
    is planned once and handed to the planner ({!Planner.plan}). A planner
    whose selection is empty (e.g. [stash-all]) returns the input graph
    unchanged, and its report's [optimised_mem] is the very [baseline_mem]
    value (the graph is planned and costed once). A planner
    that already rewrote and planned its selection (the echo ladder,
    {!Planner.outcome}[.rewritten]) returns that graph, and its report's
    [optimised_mem] is that plan: neither is built again. *)

val reduction : report -> float
(** Baseline/optimised peak-footprint ratio (>1 is better), on the
    [live_peak_bytes] metric: the lower bound any offset plan of the graph
    must pay. The executed footprint is [optimised_mem.arena_bytes], the
    slab the executor allocates — on nmt-train 3,768,336 B against a
    3,679,908 B live peak. *)

val overhead : report -> float
(** (optimised - baseline) / baseline simulated iteration time. *)

val recompute_flops_ratio : Graph.t -> original:Graph.t -> float
(** Extra FLOPs of the rewritten graph relative to the original. *)

val pp_report : Format.formatter -> report -> unit
