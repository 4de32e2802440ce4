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
