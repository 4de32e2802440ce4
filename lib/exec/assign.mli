(** Static byte-offset plans — the artifact MXNet's memory planner
    actually produces, and the layout the executor runs in.

    A plan assigns every transient value a byte offset in one contiguous
    slab such that values with overlapping lifetimes never overlap in
    address space, except an in-place taker and the dying donor it
    overwrites, which share one range exactly. {!of_plan} reads the plan
    {!Memplan}'s walk made (best fit over the liveness intervals); the
    OLLA-style solver ({!Arena_solver}) searches for a smaller one, which
    E19 compares against it and no executor runs. *)

open Echo_ir

type slot = {
  node_id : int;
  offset : int;  (** byte offset in the transient slab *)
  size : int;
  def_step : int;
  last_step : int;  (** [max_int] for graph outputs *)
}

type t

val of_plan : Graph.t -> Memplan.report -> t
(** The offsets a memory plan assigned, one slot per placed value in
    schedule order, with the plan's lifetimes and its [slab_bytes] as the
    arena. [graph] must be the graph the report was planned for. *)

val of_slots : arena:int -> slot list -> t
(** Reconstruct an assignment from raw slots. Exists for the mutation
    harness (corrupt a plan, then prove {!check} catches it) and for
    deserialised plans; no validation happens here. *)

val arena_size : t -> int
(** Bytes of the transient slab (persistent weights/inputs are outside). *)

val slots : t -> slot list
(** In schedule (definition) order. *)

val total_with_persistent : t -> Graph.t -> int
(** Arena plus weights, inputs and the maximum kernel workspace — directly
    comparable to {!Memplan}'s metrics. *)

val check : t -> Echo_diag.Report.t
(** The planner's soundness condition, collect-all: one error-severity
    diagnostic (check ["assign"]) per pair of live-overlapping slots that
    overlap in address space — an exact handover (same range, the taker
    defined at the donor's last step) excepted — and per slot escaping the
    arena; a sound plan yields an empty report. The in-place legality of a
    handover needs the graph: {!Echo_analysis.Verify.check_ranges} proves
    it. *)

val validate : t -> unit
(** Raising wrapper over {!check} for callers that want the first error
    only. @raise Failure on violation. *)
