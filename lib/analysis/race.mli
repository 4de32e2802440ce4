(** Static race / partition-disjointness analysis for the parallel
    executor.

    The compiled executor fans heavy kernels out over
    [Parallel.parallel_for]; these checkers prove, per instruction, that
    the fan-out cannot race: the chunks tile the destination exactly
    (pairwise-disjoint writes), no gathered read can overlap a concurrent
    write through an in-place alias, fused sweeps stay inside every
    member's and external's extent, the liveness plan never recycles a
    range under a pending read, and no two address-overlapping ranges of
    the slab are ever simultaneously live.

    Every predicate here deliberately {e duplicates} the runtime — the
    chunk formula, the fan-out gate, the per-operator access patterns —
    instead of importing it, so the checks are translation validation,
    not tautology (same philosophy as {!Verify}). The [?chunk_bounds],
    [?intervals] and [?offsets] arguments are how {!Mutate}'s corrupted
    artifacts are injected to prove each checker actually fires. *)

open Echo_ir
module Report = Echo_diag.Report

(** {1 The access model} *)

type access = {
  rows : int;  (** the index range handed to [parallel_for] *)
  stride : int;  (** dst elements owned per index *)
  work : int;  (** per-index scalar work, mirroring the kernels' hints *)
  may_alias : Node.t list;
      (** inputs the kernel reads chunk-aligned (or wholly before the
          fan-out): sharing the destination's range is race-free *)
  no_alias : Node.t list;
      (** inputs the kernel gathers across chunk boundaries: a read from
          these races a concurrent domain's write if its range overlaps
          the destination's *)
  fans_out : bool;  (** the kernel consults [parallel_for] at all *)
}

val access_of : Node.t -> access
(** The re-derived footprint of the node's compiled (unfused) kernel. *)

val fused_access : Fuse.group -> access
(** The footprint of a fused group's single step-outer sweep. *)

val derive_parts : Echo_tensor.Parallel.t -> rows:int -> work:int -> int
(** How many chunks [parallel_for] splits [rows] indices of [work] weight
    into under the runtime — the gate, quantum and caps re-stated.
    [1] means sequential. *)

val chunk_bounds : int -> int -> int -> int * int
(** [chunk_bounds n parts i] — the runtime's partition formula,
    re-stated. *)

(** {1 Checkers}

    Each returns a report with every finding; composable via
    {!Report.append}. Check names: ["race-partition"] (coverage /
    disjointness), ["race-sharing"] (false-sharing lint, [Info]),
    ["race-alias"] (in-place alias vs gathered read), ["race-fused"]
    (sweep extent vs member/external extents), ["race-liveness"] (plan
    intervals vs re-derived last reads), ["race-address"] (overlapping
    live ranges in the slab layout). *)

val check_kernels :
  ?chunk_bounds:(int -> int -> int -> int * int) ->
  ?fusion:Fuse.plan ->
  ?offsets:Echo_exec.Assign.t ->
  runtime:Echo_tensor.Parallel.t ->
  Graph.t ->
  Report.t
(** Per fanned-out instruction: the chunks returned by [?chunk_bounds]
    (default: the re-stated runtime formula) must tile [0, rows) exactly
    — monotone, gap-free, overlap-free — and, given the slab layout
    [offsets], no [no_alias] input's range may overlap the destination's.
    Also emits one [Info]
    summarising chunk boundaries that fall inside a 64-byte cache line
    (false sharing). *)

val check_fused : Fuse.plan -> Report.t
(** Every member of a group must span exactly the root's sweep, and every
    external must span the sweep or be a single cell (the [ScaleBy]
    multiplier, read wholly before the fan-out). *)

val check_lifetimes :
  ?fusion:Fuse.plan ->
  intervals:Echo_exec.Liveness.interval list ->
  Graph.t ->
  Report.t
(** The plan's liveness intervals (an executor plan's
    {!Echo_exec.Memplan.intervals}) against re-derived positions and last
    reads: an early expiry is a stale-read
    race (the slab reuses the range under a pending read), a late one
    a phantom read, and every non-persistent, non-interior node must have
    exactly one interval. *)

val check_addresses :
  ?fusion:Fuse.plan -> Graph.t -> Echo_exec.Assign.t -> Report.t
(** Walk the slab layout (each value at its byte offset, sized by its
    node) with re-derived lifetimes and flag any write that lands on
    bytes still live for another value — the sanctioned in-place handover
    of one whole range (overwriter {e is} the last reader) excepted, so a
    range that overlaps a live one only in part always races. *)

val check :
  ?chunk_bounds:(int -> int -> int -> int * int) ->
  ?intervals:Echo_exec.Liveness.interval list ->
  ?fusion:Fuse.plan ->
  ?offsets:Echo_exec.Assign.t ->
  runtime:Echo_tensor.Parallel.t ->
  Graph.t ->
  Report.t
(** All of the above, gated on which artifacts are supplied:
    {!check_kernels} always, {!check_fused} with [?fusion],
    {!check_lifetimes} with [?intervals], {!check_addresses} with
    [?offsets]. [Pipeline.race_verify] calls this with every artifact of
    a compiled executable. *)
