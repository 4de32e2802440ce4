(** Per-kernel and per-schedule cost estimation (roofline + launch). *)

open Echo_ir

val node_flops : Node.t -> float
(** Floating-point work of the kernel. Transcendental-heavy elementwise ops
    are weighted (an [exp] is not one FLOP); pure data movement is 0. *)

val node_bytes : Node.t -> float
(** Global-memory traffic: inputs read + output written, 4 bytes/element. *)

val node_time : Device.t -> Node.t -> float
(** Seconds. [Placeholder]/[Variable] cost nothing (no kernel runs). *)

val schedule_time : Device.t -> Node.t list -> float

val graph_time : Device.t -> Graph.t -> float
(** Sum over the graph's schedule. *)

(** {1 Fused schedules}

    Fusion groups come from {!Echo_ir.Fuse.analyse}, the plan the memory
    planner and the compiled executor use, so a fused price describes
    exactly what the fused backend runs. *)

val group_work : Fuse.group -> float * float
(** [(flops, bytes)] of a group launched as one kernel: the members'
    {!node_flops} summed, and 4 bytes per element of each external input
    and of the root — interiors move no bytes, matching the fused
    kernel. *)

val fused_time :
  node:(Node.t -> float) -> group:(Fuse.group -> float) -> Graph.t -> float
(** One pass over the schedule with every fusion group priced once, by
    [group] at its root; interiors cost nothing and every other node costs
    [node]. Summed in schedule order. *)

val fused_graph_time : Device.t -> Graph.t -> float
(** Simulated iteration time with every fusion group launched once: one
    launch plus a single roofline pass over its {!group_work}. Unfused
    nodes keep their {!node_time}. *)

type phase_times = { forward_s : float; backward_s : float; total_s : float }

val phase_times : Device.t -> Graph.t -> phase_times

type kernel_class = Gemm | Conv | Elementwise | DataMovement | Reduction | Other

val classify : Op.t -> kernel_class

val time_by_class : Device.t -> Graph.t -> (kernel_class * float) list
(** Decreasing by time; classes with zero time omitted. *)

val optimizer_update_time :
  Device.t -> weight_bytes:int -> param_count:int -> state_tensors:int -> float
(** Cost of applying one optimizer step outside the graph: each parameter
    launches one fused update kernel that streams the weight, the gradient
    and [state_tensors] state buffers. *)
