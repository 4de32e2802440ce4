(** Liveness-based memory planning and footprint measurement.

    Models the two allocator disciplines that matter for reproducing
    GPU-footprint numbers:

    - the {e live peak}: the best any allocator could do — the maximum over
      schedule steps of the bytes simultaneously live (persistent buffers +
      transient buffers + the executing kernel's workspace);
    - the {e arena size}: what an MXNet-style exact-size-reuse pool actually
      reserves — freed buffers are recycled only for identically-sized
      requests, so the arena grows monotonically and its final size is the
      device footprint an external observer (nvidia-smi) reports.

    Benchmarks report the arena size as "the footprint"; the live peak is the
    ideal-allocator reference.

    The same walk decides which physical buffer every schedule slot writes
    ([buffer_of_slot]) and records the lifetime each buffer is freed
    against ([expiry_of_slot]). A report is the whole plan:
    [Echo_compiler.Executor] is handed one, allocates exactly those
    buffers and sanitizes against those lifetimes, so the executor's
    footprint is this arena by construction. *)

open Echo_ir

type report = {
  arena_bytes : int;  (** persistent + transient pool + max workspace *)
  live_peak_bytes : int;  (** ideal-allocator peak, same inclusions *)
  peak_step : int;  (** schedule index at which the live peak occurs *)
  weight_bytes : int;
  input_bytes : int;
  stash_bytes : int;  (** forward feature maps consumed by backward nodes *)
  max_workspace_bytes : int;
  breakdown : (Category.t * int) list;
      (** live bytes per category at the live-peak step (all categories
          present, zeros included) *)
  node_count : int;
  step_of_backward_start : int option;
      (** first schedule index executing a backward-region node *)
  buffer_of_slot : int array;
      (** by schedule index: the physical buffer the slot's result is
          written to, [-1] for persistent nodes and fused interiors. Ids are
          dense and numbered in first-use order; two slots share a buffer
          iff they carry the same id. *)
  expiry_of_slot : int array;
      (** by schedule index: the [last_step] of the liveness interval the
          walk freed the slot's buffer against — [max_int] for graph
          outputs, [-1] for persistent nodes and fused interiors (no
          interval). The executor's sanitizer expires reads against it and
          [Echo_compiler.Pipeline.race_verify] checks it ({!intervals}). *)
  fusion : Fuse.plan option;
      (** the fusion plan the report was planned under; the executor
          compiles exactly these groups *)
}

val inplace_capable : Node.t -> bool
(** True for operators allowed to write their result into a dying input's
    buffer of the same size (elementwise families plus the fused
    softmax/softmax-xent kernels). [Echo_analysis.Mutate] uses it to pick
    in-place sites to corrupt. *)

val plan :
  ?reuse:bool ->
  ?inplace:bool ->
  ?fusion:Fuse.plan ->
  ?liveness:Liveness.t ->
  Graph.t ->
  report
(** [reuse] (default [true]) enables the exact-size pool; with [~reuse:false]
    every transient allocation is fresh, so [arena_bytes] degenerates to the
    sum of all transient buffers — the "no memory planning" strawman.
    [inplace] (default [true]) lets same-shape elementwise operators write
    into a dying input's buffer (MXNet's in-place optimisation) — gradient
    accumulation chains then cost one buffer instead of one per step.
    [fusion] plans for the fused executor: group interiors get no buffer,
    external inputs of a group stay live to the root's step, and a root's
    in-place candidates are the group's externals. The resulting
    [arena_bytes] equals the fused executor's measured footprint, exactly as
    in the unfused case. [liveness] (default [Liveness.analyse ?fusion
    graph]) is the analysis buffers are freed and handed over against, and
    the lifetimes [expiry_of_slot] records. Overriding it is the
    race-verify mutation harness's injection point: a corrupted interval
    list ({!Liveness.of_intervals}) becomes a plan, and an executor compiled
    from it a real one, whose early frees the sanitizer must catch. *)

val intervals : Graph.t -> report -> Liveness.interval list
(** The liveness intervals the plan freed against, rebuilt in schedule
    order from [expiry_of_slot]: one per slot that is neither persistent
    nor a fused interior. [graph] must be the graph the report was planned
    for. *)

val pp : Format.formatter -> report -> unit
