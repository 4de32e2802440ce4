(** Liveness-based memory planning and footprint measurement.

    One walk over the schedule decides where every value lives and what
    the executor's footprint is:

    - the {e live peak}: the best any allocator could do — the maximum over
      schedule steps of the bytes simultaneously live (persistent buffers +
      transient buffers + the executing kernel's workspace);
    - the {e arena}: what the executor actually reserves — persistent
      buffers, one slab for every transient value, and the largest kernel
      workspace. Each transient value gets a byte offset in the slab by
      best fit (the smallest free range that holds it, else the slab grows),
      the static plan MXNet's allocator produces (Chen et al.); a value
      is given back after the last step that reads it has placed its own
      result, and an elementwise result may take over the range of a
      same-size input dying at its step (in place). The slab's size is its
      high-water mark.

    Benchmarks report the arena as "the footprint" — the device footprint
    an external observer (nvidia-smi) would see; the live peak is the
    ideal-allocator reference, and the gap between them is fragmentation.

    A report is the whole plan: the offset of every schedule slot
    ([offset_of_slot]) and the lifetime each range is freed against
    ([expiry_of_slot]). [Echo_compiler.Executor] is handed one, allocates
    one slab of [slab_bytes], binds each slot to its range and sanitizes
    against those lifetimes, so the executor's footprint is this arena by
    construction. *)

open Echo_ir

type report = {
  arena_bytes : int;  (** persistent + [slab_bytes] + max workspace *)
  slab_bytes : int;
      (** the transient slab: the high-water mark of the offsets placed *)
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
  offset_of_slot : int array;
      (** by schedule index: the byte offset in the slab of the range the
          slot's result is written to, [-1] for persistent nodes and fused
          interiors. A slot's range is [offset, offset + Node.size_bytes);
          two values live at the same time never overlap, except an
          in-place taker and the donor it overwrites, which share one
          range exactly. *)
  expiry_of_slot : int array;
      (** by schedule index: the [last_step] of the liveness interval the
          walk freed the slot's range against — [max_int] for graph
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
(** [reuse] (default [true]) lets a range given back be placed again;
    with [~reuse:false] every transient value gets fresh slab space, so
    [arena_bytes] degenerates to the sum of all transient values — the "no
    memory planning" strawman. [inplace] (default [true]) lets same-shape
    elementwise operators write into a dying input's range (MXNet's
    in-place optimisation) — gradient accumulation chains then cost one
    range instead of one per step. [fusion] plans for the fused executor:
    group interiors get no range, external inputs of a group stay live to
    the root's step, and a root's in-place candidates are the group's
    externals. [liveness] (default [Liveness.analyse ?fusion graph]) is the
    analysis ranges are freed and handed over against, and the lifetimes
    [expiry_of_slot] records. Overriding it is the race-verify mutation
    harness's injection point: a corrupted interval list
    ({!Liveness.of_intervals}) becomes a plan, and an executor compiled
    from it a real one, whose early frees the sanitizer must catch.

    The walk allocates O(1) words per schedule step beyond its per-slot
    arrays: the free ranges live in two preallocated arrays. *)

val intervals : Graph.t -> report -> Liveness.interval list
(** The liveness intervals the plan freed against, rebuilt in schedule
    order from [expiry_of_slot]: one per slot that is neither persistent
    nor a fused interior. [graph] must be the graph the report was planned
    for. *)

val pp : Format.formatter -> report -> unit
