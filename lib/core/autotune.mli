(** Planner autotuning: pick a recomputation plan for an external constraint
    rather than a fixed overhead budget.

    This is the runtime-tool direction the original authors describe —
    selecting the best executor configuration automatically from measured
    (here: simulated) footprint and time, instead of asking the user to
    hand-pick flags. Every candidate is a {!Planner.instance} resolved
    through the registry, so newly registered planners join the search
    space without touching this module. *)

open Echo_ir
open Echo_gpusim

type outcome = {
  planner : Planner.instance;
  graph : Graph.t;  (** rewritten training graph *)
  report : Pass.report;
}

val label : outcome -> string
(** {!Planner.label} of the outcome's planner instance. *)

val run_one : device:Device.t -> Planner.instance -> Graph.t -> outcome
(** One rung: {!Pass.run_instance} wrapped into an outcome. *)

val escalation : float list
(** The Echo overhead-budget ladder:
    [0.01; 0.03; 0.05; 0.10; 0.20; 0.30; 0.50; 1.0]. *)

val fit_ladder : Planner.instance list
(** The full escalation ladder the fault-tolerant runtime re-plans through,
    cheapest (in recompute overhead) first: [stash-all], then [echo] at each
    rung of {!escalation}, then the segment recomputers [checkpoint-sqrt]
    and [dp-bptt], then [recompute-all]. The monotonicity of measured
    recompute overhead along this tail is enforced by the planner test
    suite. *)

val fit_memory :
  device:Device.t -> ?fuse:bool -> Graph.t -> budget_bytes:int -> outcome option
(** First rung of {!fit_ladder} whose planned {e arena} footprint
    ([Memplan.report.arena_bytes] — exactly what the compiled slot executor
    allocates, see [Echo_compiler.Executor.footprint_bytes]) fits
    [budget_bytes]. [None] when even [recompute-all] does not fit. This is
    what [Echo_train.Loop] uses to recover from [Budget_exceeded].

    [fuse] must match the fusion setting the accepted graph will later be
    compiled with (default: the [ECHO_FUSION] environment setting, like
    [Echo_compiler.Pipeline.fuse]): when on, fitting is judged on the fused
    arena ([Memplan.plan ~fusion]), which is what the fused executor
    allocates. *)

val fit_footprint : ?fuse:bool -> outcome -> int
(** The arena footprint {!fit_memory} judged the outcome by. *)

val for_memory_target :
  device:Device.t -> Graph.t -> target_bytes:int -> outcome option
(** Cheapest Echo plan (by simulated overhead) whose measured peak footprint
    fits [target_bytes]: escalates the overhead budget through
    {1%%, 3%%, 5%%, 10%%, 20%%, 30%%, 50%%, 100%%} and stops at the first
    budget that fits. [None] when even the most aggressive plan does not. *)

val best_throughput :
  device:Device.t ->
  Graph.t ->
  budget_bytes:int ->
  candidates:Planner.instance list ->
  outcome option
(** Among [candidates] whose plan fits [budget_bytes], the one with the
    smallest simulated iteration time. [None] if none fits. *)

(** {1 Joint execution-knob search} *)

type exec_combo = {
  fuse : bool;
  domains : int;  (** as requested — the runtime caps it at the hardware *)
}
(** One point of the execution grid: fusion on/off and pool size. *)

type exec_choice = {
  chosen : outcome;  (** the accepted recomputation plan *)
  combo : exec_combo;
  predicted_s : float;
      (** host-roofline wall-clock of one pass under [combo] (see
          {!fit_exec}) *)
  arena_bytes : int;  (** the arena the choice was admitted under *)
}

val domain_candidates : int list
(** The pool sizes {!fit_exec} prices: [[1; 2; 4]]. *)

val combo_runtime : exec_combo -> Echo_tensor.Parallel.t
(** A fresh runtime handle realising the combo's domain count, for passing
    to [Executor.compile ?runtime]. *)

val fit_exec :
  device:Device.t -> Graph.t -> budget_bytes:int -> exec_choice option
(** Walk {!fit_ladder} cheapest-recompute-first; at every rung whose arena
    (fused or unfused, each its own grid point) fits [budget_bytes], price
    the whole (fuse, {!domain_candidates}) grid and return the globally
    fastest combination. [None] when no rung fits the budget.

    The price is a host roofline private to this module, built on the
    simulator's {!Echo_gpusim.Costmodel.node_flops},
    {!Echo_gpusim.Costmodel.node_bytes} and
    {!Echo_gpusim.Costmodel.group_work}. One instruction costs a dispatch,
    plus a fan-out overhead iff its flops clear the runtime's default
    fan-out gate with more than one domain, plus the rooflined max of
    compute (scaled by the fan-out, and by a flat blocked-kernel speedup
    for every matmul) and memory traffic (never scaled — the domains share
    one bus). A fusion group ({!Echo_ir.Fuse.analyse}) costs one dispatch
    over its summed work, with the gate applied to the merged kernel. The
    fan-out is the hardware-capped effective one, so ties keep the
    earliest (cheapest-recompute, smallest domain count) point and the
    choice never asks for parallelism the machine cannot deliver. *)
