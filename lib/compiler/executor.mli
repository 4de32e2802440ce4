(** The compiled slot-based executor.

    [compile] lowers a planned graph once into a flat instruction array:
    the schedule is frozen, every node gets a dense integer {e slot}
    (its schedule index), input lookups are precompiled slot reads, and
    every transient node is bound at compile time to a view of one slab, at
    the offset the memory plan it is handed ({!Echo_exec.Memplan.report})
    assigned it ([offset_of_slot]: best fit over the liveness intervals,
    plus in-place transfer into dying same-size inputs). The executor
    allocates that one slab and decides no placement itself. Running a
    step is then a single array sweep with {e zero} tensor allocation —
    slab ranges are reused across nodes within a step and across training
    steps, which is the "compile once, train many steps" execution model
    the Echo paper assumes.

    Numerics are bit-identical to the reference interpreter {!Echo_exec.Interp}
    by construction: both execute the same scalar kernels in the same
    accumulation order (see {!Echo_tensor.Tensor.Into}), and the property is
    enforced by differential tests.

    Aliasing contract: tensors returned by {!outputs}/{!eval} alias the
    executor's slab. They are valid until the next {!run} on the
    same executor; copy them ({!Echo_tensor.Tensor.copy}) to retain values
    across steps. Feed tensors are aliased, not copied — mutating a fed
    tensor between runs is a legitimate way to update an input in place. *)

open Echo_tensor
open Echo_ir

type t

exception Budget_exceeded of { requested_bytes : int; budget_bytes : int }
(** Raised by {!compile} when the plan's footprint crosses [budget_bytes]:
    the simulated device ran out of memory. [requested_bytes] is the running
    total — persistent bytes so far + the slab's high-water mark so far +
    the largest workspace so far, walking the slots in schedule order — at
    the first slot where it exceeds the ceiling, so it is a lower bound on
    the full footprint. The
    fault-tolerant training loop ([Echo_train.Loop]) catches this and
    re-plans through the recomputation escalation ladder. *)

val compile :
  ?budget_bytes:int ->
  ?runtime:Parallel.t ->
  ?plan:Echo_exec.Memplan.report ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  Graph.t ->
  t
(** Compile the graph's schedule into instructions and bind each slot to
    its slab range.

    [budget_bytes] is a hard ceiling on the device-accounted arena: a plan
    whose footprint crosses it aborts compilation with {!Budget_exceeded}
    before the slab is allocated.
    An executor compiled under a budget always satisfies
    [footprint_bytes <= budget_bytes].

    [runtime] (default {!Echo_tensor.Parallel.default}, i.e. sized by the
    [ECHO_DOMAINS] environment variable) is baked into every compiled
    instruction: heavy kernels partition their output rows across its
    domains. Results are bit-identical at every domain count — see
    {!Echo_tensor.Parallel}.

    [plan] (default [Memplan.plan graph]: unfused) is the memory plan the
    executor carries out, and {!plan} returns it; it must have been made
    for [graph]. The executor allocates one slab of [plan.slab_bytes] and
    every slot writes the range at [plan.offset_of_slot], so
    [footprint_bytes] is [plan.arena_bytes]. Each group of
    [plan.fusion] compiles into a single fused instruction — one pass over
    the root's range with the chain folding in registers, via
    {!Echo_tensor.Tensor.Into.fused}; interiors get no range, no tensor
    and no instruction, and results stay bit-identical to the unfused
    executor (same scalar kernels, same partitioning). The sanitizer
    expires each slot's reads at [plan.expiry_of_slot]. A plan built over
    corrupted intervals ([Memplan.plan ~liveness:(Liveness.of_intervals
    ...)]) is the race-verify mutation harness's injection point: it
    becomes a real executor whose early frees the shadow-memory sanitizer
    must catch; so is a plan whose [offset_of_slot] was corrupted
    ([Echo_analysis.Mutate.overlap_partially]), as long as every range
    stays inside the slab ([Invalid_argument] otherwise).

    [sanitize] (default {!Echo_analysis.Sanitize.env_mode}, i.e. the
    [ECHO_SANITIZE] environment variable) brackets every instruction of
    every {!run} with shadow-memory checks — see
    {!Echo_analysis.Sanitize}. The sanitizer changes no kernel, schedule
    or buffer content, so sanitized runs stay bit-identical; {!run}
    raises [Sanitize_failed] at the end of any step with findings. *)

(** {1 Running} *)

val slot : t -> Node.t -> int
(** Dense slot (schedule index) of a node.
    @raise Invalid_argument for nodes outside the graph. *)

val set_input : t -> int -> Tensor.t -> unit
(** Bind a feed tensor (by slot) for a [Placeholder]/[Variable]. The tensor
    is aliased, not copied.
    @raise Invalid_argument on a non-input slot or a shape mismatch. *)

val input_slot : t -> Node.t -> int option
(** The slot {!feed} binds for a node: its own slot when the node is in
    the graph, else the unique [Placeholder]/[Variable] carrying its name,
    else [None]. A caller feeding the same executable many times can
    resolve once and {!set_input} by slot after that.
    @raise Invalid_argument when several inputs share the absent node's
    name. *)

val feed : t -> Node.t -> Tensor.t -> unit
(** [set_input] by node. A node absent from the graph resolves by name to
    the unique [Placeholder]/[Variable] carrying it: this lets a cached
    executable serve a structurally identical graph from a different build,
    whose node ids differ (the canonical {!Echo_ir.Graph.fingerprint}
    includes leaf names, so a fingerprint match guarantees resolution
    succeeds). A feed no input matches is silently ignored, matching
    {!Echo_exec.Interp.eval}'s tolerance of superfluous feeds.
    @raise Invalid_argument when several inputs share the absent node's
    name, or on a shape mismatch. *)

val run : t -> unit
(** Execute one step over the frozen schedule.
    @raise Echo_exec.Interp.Missing_feed naming every unfed input. *)

(** {1 Fault injection} *)

val schedule_flip : t -> slot:int -> index:int -> bit:int -> unit
(** Arm one single-event upset for the {e next} {!run}: immediately after
    [slot]'s instruction executes, bit [bit] of scalar [index mod numel] of
    its value flips ({!Echo_tensor.Tensor.flip_bit}) — before any consumer
    reads it, so the corruption enters the dataflow at exactly that point
    regardless of planner, fusion or domain count. All armed flips are
    cleared after that run; when none are pending the execution path is
    byte-for-byte the unfaulted one.
    @raise Invalid_argument on an out-of-range slot, a slot that owns no
    run-time value (a fused interior: register-resident, nothing to upset),
    a negative index, or a bit outside 0..63. *)

val outputs : t -> Tensor.t array
(** Output values of the last {!run}, in graph-output order. See the
    aliasing contract above. *)

val eval : t -> feeds:Echo_exec.Interp.feeds -> Tensor.t list
(** Drop-in for {!Echo_exec.Interp.eval}: feed, run, return outputs. *)

(** {1 Introspection} *)

val graph : t -> Graph.t

val runtime : t -> Parallel.t
(** The kernel runtime baked in at compile time. *)

val instruction_count : t -> int
(** Length of the instruction array — one entry per schedule slot, including
    nops (buried constants, fused interiors). *)

val active_instruction_count : t -> int
(** Instructions that actually execute at run time. Fusion lowers this: a
    group of [k] members costs one instruction instead of [k]; compile-time
    buried constants don't count either. *)

val fused_group_count : t -> int
(** Number of fused groups compiled; [0] when the plan has no fusion.
    Equals [Fuse.group_count (Fuse.analyse g)] for a graph compiled under
    {!Echo_ir.Fuse.analyse}'s plan, which the cost models price. *)

val fused_interior_count : t -> int
(** Chain members that were folded into a fused instruction and got no
    range, tensor or instruction of their own. *)

val plan : t -> Echo_exec.Memplan.report
(** The memory plan the executor was compiled from — the same value passed
    as [?plan], not a copy: the slab it allocates, the offset each slot's
    view is bound at, the fusion groups it compiles and the lifetimes it
    frees against. The verification layer ({!Echo_analysis.Verify},
    {!Echo_analysis.Race}) reads this layout, re-derives liveness from
    scratch and proves no two overlapping-live ranges overlap. *)

val footprint_bytes : t -> int
(** Device-accounted ([Node.elem_bytes] per element) footprint of the
    compiled artifact: persistent + slab + max workspace. Equal to
    [(plan e).arena_bytes] by construction, and equal to
    {!allocated_bytes}: the executor allocates exactly what that plan
    sized. *)

val allocated_bytes : t -> int
(** Device bytes the executor allocated, tallied by {!compile} itself
    rather than read from the plan: the persistent values fed to it, the
    one slab every transient value views ([Node.elem_bytes] per float),
    and the largest workspace any instruction needs. *)

val sanitize_report : t -> Echo_diag.Report.t option
(** The sanitizer's findings so far ([None] when compiled with it off).
    {!run} raises [Echo_analysis.Sanitize.Sanitize_failed] as soon as a
    step finishes with error findings, but the report remains readable
    here afterwards. *)
