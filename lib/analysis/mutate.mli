(** Mutation harness: seed one deliberate, realistic corruption into an
    otherwise sound artifact so the test suite can prove each {!Verify}
    checker actually fires. Every mutator returns [None] when the artifact
    offers no site for its corruption (no clone to reseed, no slot pair to
    overlap), so tests can assert presence explicitly instead of silently
    passing on an empty mutation. *)

open Echo_ir

val swap_schedule : Graph.t -> Node.t list option
(** A schedule with one node hoisted in front of its inputs — breaks
    topological order for {!Verify.check_schedule}'s [?schedule]. *)

(** The layout mutators take a memory plan and return a corrupted copy of
    it (the input is not modified): only [offset_of_slot] changes. *)

val overlap_slots :
  Graph.t -> Echo_exec.Memplan.report -> Echo_exec.Memplan.report option
(** Move a slot defined strictly inside another slot's live range
    ([expiry_of_slot]) onto that slot's byte offset — two
    simultaneously-live values share bytes without either being the
    other's in-place handover, so {!Verify.check_ranges} must report an
    [alias] error. *)

val escape_slot : Echo_exec.Memplan.report -> Echo_exec.Memplan.report option
(** Push the first placed slot's offset to the slab's end —
    {!Verify.check_ranges} must report the escape. *)

val retarget_inplace :
  Graph.t -> Echo_exec.Memplan.report -> Echo_exec.Memplan.report option
(** Hand an input dying at its step to a consumer whose operator cannot
    write in place, by placing the consumer at the input's offset — a
    corrupted in-place transfer {!Verify.check_ranges} must reject. *)

val reseed_clone : Graph.t -> Graph.t option
(** Rebuild the graph with one recomputation clone's [DropoutMask] seed
    changed: the clone now recomputes a {e different} mask than was used in
    the forward pass — {!Verify.check_recompute} must report the operator
    divergence. *)

val bad_clone_hint : Graph.t -> Graph.t option
(** Rebuild the graph with one clone's scheduling hint pushed past its
    earliest consumer's — recomputation is no longer just-in-time and
    {!Verify.check_recompute} must say so. *)

val cross_region_group : Graph.t -> Fuse.plan option
(** A hand-indexed fusion plan whose single group chains a forward producer
    into a backward consumer — {!Verify.check_fusion} must report the
    region crossing. *)

(** {1 Race-verify corruptions}

    Each targets exactly one {!Race} / {!Sanitize} checker; the harness
    proves every one fires both statically (through [Race]'s
    [?chunk_bounds] / [?intervals] / [?plan] injection points) and
    dynamically (through an executor compiled from a corrupted memory plan,
    [Executor.compile ~plan], or a directly driven {!Sanitize}). *)

val shift_partition : [ `Overlap | `Gap ] -> int -> int -> int -> int * int
(** A corrupted chunk formula with every interior boundary shifted one
    row: adjacent chunks either both write the boundary row or neither
    does — {!Race.check_kernels}'s [?chunk_bounds] must report the
    overlap / gap. *)

val shrink_lifetime :
  Echo_exec.Liveness.interval list -> Echo_exec.Liveness.interval list option
(** Expire one read-after-def buffer of the given intervals (a
    [Liveness.intervals] analysis or an executor plan's
    [Memplan.intervals]) at its definition step, so the slab may reuse it
    under the pending read — {!Race.check_lifetimes} must report the stale
    read, and an executor compiled from
    [Memplan.plan ~liveness:(Liveness.of_intervals ...)] of the same
    corruption must trip the sanitizer. *)

val overlap_partially :
  Graph.t -> Echo_exec.Memplan.report -> Echo_exec.Memplan.report option
(** Shift one slot's offset so its range starts one element inside the
    range of another value that is live across its definition and read
    after it, staying inside the slab: the two ranges overlap in part.
    {!Verify.check_ranges} and {!Race.check_addresses} must report it on
    the result, and an
    executor compiled from the corrupted plan must trip the [Cells]
    sanitizer. *)

val widen_fused_interior : Fuse.plan -> Fuse.plan option
(** Swap one single-input interior of a fused group for a clone one row
    wider than the root's sweep — {!Race.check_fused} must report the
    extent mismatch. *)
