(** Elementwise-fusion statistics for the cost model.

    Chains of cheap elementwise operators that real compilers (XLA, TVM)
    fuse into single kernels are identified as {e fusion groups} by
    {!Echo_ir.Fuse} — the same analysis the memory planner and the compiled
    executor consume, so these statistics describe exactly what the fused
    backend runs (the test suite asserts the counts match the executor's).
    The IR itself stays one-op-per-node; fusion is a property of the
    compiled instruction stream, not a graph rewrite. *)

open Echo_ir
open Echo_gpusim

type stats = {
  groups : int;  (** fusion groups with at least 2 members *)
  fused_nodes : int;  (** elementwise nodes inside those groups *)
  launches_saved : int;  (** kernel launches the fused executor avoids *)
}

val analyse : Graph.t -> stats

val fused_graph_time : Device.t -> Graph.t -> float
(** Simulated iteration time with every fusion group launched once: a group
    costs one launch plus a single roofline pass whose compute is the sum of
    the members' flops and whose traffic counts each external input and the
    root output exactly once — interiors move no bytes, matching the fused
    kernel. Unfused nodes keep their {!Costmodel.node_time}. *)

(** {1 Host (Domain-pool) cost model}

    Prices the machine the compiled executor actually runs on — the
    multicore kernel runtime ({!Echo_tensor.Parallel}) — using the same
    fan-out gate and hardware cap the runtime itself applies, so the
    fusion decision and the execution schedule are one system. This is
    the model behind [Fuse.analyse ~keep:(profitable cfg)] and
    [Echo_core.Autotune]'s joint (fuse, domains) search.

    One instruction costs a dispatch, plus the fan-out overhead iff its
    flops clear the gate with more than one domain, plus the rooflined max
    of compute (scaled by the fan-out, and by [blocked_speedup] for every
    matmul) and memory traffic (never scaled — the domains share one bus).
    A fused group costs one dispatch, its members' flops summed and bytes
    counted once over externals and root, with the gate applied to the
    merged kernel's total work — the decision {!Tensor.Into.fused} takes
    at run time. *)

type exec_config = {
  domains : int;
      (** effective fan-out — already capped at the hardware, like
          {!Echo_tensor.Parallel.effective_fanout} *)
  min_fanout_work : int;  (** the runtime's fan-out work gate *)
  fanout_overhead_s : float;  (** wakeup/join latency of one fan-out *)
  scalar_rate : float;  (** weighted scalar ops/s of one domain *)
  mem_rate : float;  (** bytes/s of the shared memory system *)
  dispatch_s : float;  (** per-instruction interpreter overhead *)
  blocked_speedup : float;  (** flat gain of the SIMD matmul kernel *)
}

val host_config : exec_config
(** Single-domain defaults, sharing the gate of
    {!Echo_tensor.Parallel.sequential}. *)

val of_runtime : Echo_tensor.Parallel.t -> exec_config
(** {!host_config} specialised to a runtime handle: its effective fan-out
    and fan-out gate. *)

val profitable : exec_config -> Fuse.group -> bool
(** Whether the group priced as one fused kernel costs no more than its
    members priced as separate instructions — the [~keep] predicate for
    {!Echo_ir.Fuse.analyse}. Fusing never adds scalar work, so this only
    rejects groups whose merged fan-out decision costs more than the saved
    dispatches and interior traffic. *)

val host_graph_time : exec_config -> ?fuse:bool -> Graph.t -> float
(** Predicted host wall-clock of one pass over the schedule. With
    [fuse = true] (default) the graph is priced under
    [Fuse.analyse ~keep:(profitable cfg)] — the plan the compiler would
    emit for this config; with [fuse = false], every node separately. *)
