(** Elementwise-fusion grouping.

    Maximal single-consumer chains of same-shape, same-region elementwise
    nodes are identified as {e fusion groups}. A group evaluates as one
    kernel: per output element the chain is folded in registers, only the
    last member (the {e root}) writes a buffer, and every other member (an
    {e interior}) never materializes.

    This module is the single source of truth for what fuses, and its
    {!plan} is a function of the graph alone. The planner
    ({!Echo_exec.Memplan} / {!Echo_exec.Liveness}), the compiled executor
    and the cost models that price a fused schedule (the simulated GPU's
    [Echo_gpusim.Costmodel.fused_graph_time], the autotuner's host
    roofline) all consume the same {!plan}, so the predicted arena, the
    simulated launch count and the compiled instruction stream agree by
    construction.

    The grouping rule ([member_of]): a node joins its first input's group
    iff both are elementwise with equal shapes, both live in the same
    region (a recomputed backward clone of a chain therefore fuses again,
    inside the backward region), the producer has exactly one consumer, and
    the producer is not a graph output (outputs must materialize). *)

type group = {
  members : Node.t list;  (** chain order, head first; length >= 2 *)
  root : Node.t;  (** last member — the only one that gets a buffer *)
  externals : Node.t list;
      (** inputs read from outside the group, in evaluation order: the
          head's inputs, then each later member's non-chain inputs. May
          contain duplicates when one node feeds several members. *)
}

type plan

val elementwise : Node.t -> bool
val member_of : Graph.t -> Node.t -> Node.t option
(** The producer whose group [node] joins, if any. *)

val default_max_externals : int
(** External budget per group ([2]: the seed plus one more operand —
    admits unary chains of any length and single-binary-step patterns
    while keeping the fused arena no larger than the unfused one). *)

val of_groups : group list -> plan
(** Index a raw group list into a plan, with no legality checking —
    [analyse] ends here, and the mutation harness enters here directly with
    deliberately illegal groups to prove {!Echo_analysis.Verify} rejects
    them. *)

val analyse : Graph.t -> plan
(** Identify fusion groups. Maximal chains are split so no group reads more
    than {!default_max_externals} external buffers: every external stays
    live until the group's root executes, so an unbounded group (a long
    gradient accumulation, say) would pin all its summands simultaneously
    and grow the arena fusion is meant to shrink. A split point
    materializes the previous segment's root, which the next segment reads
    as its first external. *)

val groups : plan -> group list
(** Groups in schedule order of their heads. *)

val group_count : plan -> int
val is_interior : plan -> int -> bool
val interior_count : plan -> int
val group_of_root : plan -> int -> group option

val reader_slots : plan -> Graph.t -> int array
(** By schedule slot of [graph], the slot at which the node's reads
    actually happen: its group root's for a member, its own otherwise — so
    a slot is an interior exactly when its reader is another slot.
    Liveness extends every buffer a group reads to the root's step through
    this. @raise Not_found if a group with a member in the graph has its
    root outside it. *)

val interior_bytes : group -> int
(** Bytes of arena the group's interiors no longer need. *)

val env_enabled : unit -> bool
(** [ECHO_FUSION=0|off|false|no] disables the fusion stage's default;
    [1|on|true|yes], the empty string or an unset variable enables it.
    @raise Invalid_argument on any other value — a typo must not silently
    pick a default. *)

val pp_group : Format.formatter -> group -> unit
val pp_plan : Format.formatter -> plan -> unit
