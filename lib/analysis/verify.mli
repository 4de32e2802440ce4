(** Echo-verify: independent static sanitizers over compiled artifacts.

    Every stage of the pipeline produces an inspectable artifact — a
    schedule, a rewritten graph, an offset assignment, a fusion plan, a
    compiled buffer binding. The checkers here re-prove the safety
    conditions those artifacts rely on {e from scratch}: liveness intervals
    are re-derived from the graph (not read back from {!Echo_exec.Liveness}),
    and the elementwise / in-place-capable operator sets are duplicated
    rather than imported, so a bug in the planner and a bug in the checker
    must coincide for a violation to slip through (translation validation,
    not self-certification).

    Each checker returns a collecting {!Echo_diag.Report}; a sound artifact
    yields a report with no errors. The checkers deliberately do {e not}
    re-prove what holds by construction — see DESIGN.md ("Verification
    layer") for the trust boundary of each one. *)

open Echo_ir

exception Verify_failed of Echo_diag.Report.t
(** Raised by {!check_exn} (and by the pipeline under [ECHO_VERIFY=1]) when
    a report contains error-severity findings. *)

val check_exn : Echo_diag.Report.t -> unit
(** @raise Verify_failed if the report has at least one error. *)

val env_enabled : unit -> bool
(** [ECHO_VERIFY=1|on|true|yes] turns on in-pipeline verification (the
    checkers run inside [Pipeline.compile] and raise {!Verify_failed} on
    error findings); unset or anything else leaves it off. *)

(** {1 Checkers}

    Each takes the graph plus the artifact it certifies and returns its own
    report; {!lint} composes them. *)

val check_schedule : ?schedule:Node.t list -> Graph.t -> Echo_diag.Report.t
(** Check ["schedule"]: the execution order is a topological order of the
    dataflow edges (no node before an input, no duplicate slots, every
    output present, node count matches the graph), and every node's recorded
    shape re-infers identically through {!Echo_ir.Op.infer_shape}.
    [schedule] (default [Graph.nodes]) lets the mutation harness present a
    corrupted order. *)

val check_determinism : Graph.t -> Echo_diag.Report.t
(** Check ["determinism"]: every operator is pure (replay-deterministic —
    stochastic ops must carry their seed in the op, as [DropoutMask] does),
    with an info-severity note when two unrelated same-shape masks share a
    seed (correlated dropout is legal but rarely intended). *)

val check_recompute : Graph.t -> Echo_diag.Report.t
(** Check ["recompute"]: every recomputation clone ([mirror]'s ["~r"]
    convention) lives in the backward region, matches its forward original
    operator-for-operator (including the [DropoutMask] seed) and
    shape-for-shape, reads inputs that correspond to the original's (the
    input itself, or that input's clone), and carries a scheduling hint no
    later than its earliest consumer's — recomputation stays
    just-in-time. *)

val check_fusion : ?max_externals:int -> Graph.t -> Fuse.plan -> Echo_diag.Report.t
(** Check ["fusion"]: every group is a single-consumer chain of elementwise,
    same-shape, same-region graph members (no forward/backward crossing);
    no interior is a graph output or consumed outside the group; the root is
    the last member; the recorded externals are exactly what the fused
    kernel reads and number at most [max_externals] (default
    {!Echo_ir.Fuse.default_max_externals}); no node belongs to two
    groups. *)

val check_offsets : Graph.t -> Echo_exec.Assign.t -> Echo_diag.Report.t
(** Check ["assign"]: re-derives every slot's live interval from the graph
    (ignoring the interval the slot itself records, which is separately
    checked against the derivation), then proves no two live-overlapping
    slots overlap in address space and no slot escapes the arena; every
    non-persistent node has exactly one slot. *)

val check_binding :
  ?fusion:Fuse.plan -> Graph.t -> (Node.t * int) list -> Echo_diag.Report.t
(** Checks ["alias"] and ["inplace"] over a compiled executor's buffer
    binding ({!val:Echo_compiler.Executor.buffer_binding}-shaped data).
    Re-derives live intervals from scratch — under [fusion], a group
    member's reads extend to the group root's step and interiors must not
    appear in the binding at all — and proves that two nodes bound to the
    same physical buffer never overlap in liveness. Back-to-back handover
    (the taker defined exactly at the donor's last read) is legal only as an
    in-place transfer: the taker's operator can write in place, the donor is
    among the buffers the taker's instruction actually reads (group
    externals for a fused root), sizes match, and the donor is not a graph
    output. Also proves the binding covers every materialising node exactly
    once. *)

(** {1 Composition} *)

val lint :
  ?schedule:Node.t list ->
  ?fusion:Fuse.plan ->
  ?offsets:Echo_exec.Assign.t ->
  ?binding:(Node.t * int) list ->
  Graph.t ->
  Echo_diag.Report.t
(** Run every checker applicable to the artifacts provided and collect all
    findings into one report: {!check_schedule}, {!check_determinism} and
    {!check_recompute} always; {!check_fusion} when [fusion] is given;
    {!check_offsets} when [offsets] is given; {!check_binding} when
    [binding] is given. *)
