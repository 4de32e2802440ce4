(** Echo-verify: independent static sanitizers over compiled artifacts.

    Every stage of the pipeline produces an inspectable artifact — a
    schedule, a rewritten graph, a fusion plan, the memory plan (byte
    offsets and lifetimes) a compiled executor runs in. The checkers here re-prove the safety
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

val check_ranges : Graph.t -> Echo_exec.Memplan.report -> Echo_diag.Report.t
(** The one range checker, over any memory plan — the plan a compiled
    executor runs ({!val:Echo_compiler.Executor.plan}), a stage's plan or
    a static artifact (the OLLA solve, [Echo_exec.Arena_solver.solve]).
    It reads the plan's [offset_of_slot], [expiry_of_slot], [slab_bytes]
    and [fusion] fields only: a slot is placed when its offset is [>= 0],
    and its range spans its node's size. Re-derives every value's live
    interval from the graph — under the plan's [fusion], a group member's
    reads extend to the group root's step — and checks, collect-all, in
    schedule order:
    - ["alias"]: every materialising node has a range, and no persistent
      node or fused interior has one; no two values live at the same time
      overlap in address space, whether the ranges coincide or overlap
      only in part;
    - ["inplace"]: the one sanctioned overlap, a handover (the taker
      placed at the donor's offset and defined at the donor's last read),
      is a legal in-place transfer: the two have the same size, the taker's
      operator can write in place, the donor is among the values the
      taker's instruction reads (group externals for a fused root), and the
      donor is not a graph output;
    - ["arena"]: every range lies inside the slab, and the lifetime each
      slot records ([expiry_of_slot]) is the re-derived last read.

    @raise Invalid_argument if the plan's arrays do not have one entry per
    schedule slot of [graph]. *)

(** {1 Composition} *)

val lint :
  ?schedule:Node.t list ->
  ?fusion:Fuse.plan ->
  ?plan:Echo_exec.Memplan.report ->
  Graph.t ->
  Echo_diag.Report.t
(** Run every checker applicable to the artifacts provided and collect all
    findings into one report: {!check_schedule}, {!check_determinism} and
    {!check_recompute} always; {!check_fusion} when [fusion] is given;
    {!check_ranges} (under the plan's own fusion) when [plan] is given. *)
