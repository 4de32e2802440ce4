(** Dataflow graphs.

    A graph is its list of output nodes; everything reachable from them
    through input edges belongs to the graph. Scheduling is deterministic:
    Kahn's algorithm taking the ready node with the smallest (hint, id),
    which reproduces program (creation) order — forward nodes first,
    backward nodes next, and recomputation clones as late as their
    consumers allow. {!create} indexes the graph and schedules it in one
    linear pass. *)

type t

val create : Node.t list -> t
(** @raise Invalid_argument on an empty output list. *)

val created_count : unit -> int
(** Graphs {!create} has built in this process, over every domain: the
    compile-anatomy bench counts them per stage. *)

val outputs : t -> Node.t list

val nodes : t -> Node.t list
(** All reachable nodes in schedule order (see above). Computed once and
    cached. *)

val node_count : t -> int

val mem : t -> int -> bool
(** Is the node with this id part of the graph? *)

val find : t -> int -> Node.t
(** @raise Not_found if absent. *)

val consumers : t -> int -> Node.t list
(** Nodes of the graph that take the given node as an input. A consumer that
    uses the node for several of its input slots appears once per slot. *)

val is_output : t -> int -> bool

(** {1 By schedule slot}

    A node's {e slot} is its index in {!nodes}. {!create} indexes the
    graph by slot anyway; these expose that index, so analyses that walk
    the schedule can keep per-slot arrays instead of tables keyed by node
    id. *)

val position : t -> int -> int
(** The slot of the node with this id. @raise Not_found if absent. *)

val node_at : t -> int -> Node.t
(** The node at a slot. *)

val is_output_at : t -> int -> bool

val fold_inputs_at : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Folds over the slots of the node's inputs, in [Node.inputs] order. *)

val fold_consumers_at : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Folds over the slots of the node's consumers, in schedule order, once
    per input slot that reads it (the slots of {!consumers}). *)

val forward_nodes : t -> Node.t list
val backward_nodes : t -> Node.t list

val check : t -> Echo_diag.Report.t
(** Internal consistency check, collect-all: every input of a member is a
    member, ids are unique, schedule order is topological. Each violation is
    one error-severity diagnostic (check ["graph"]) naming node ids and op
    names; a consistent graph yields an empty report. *)

val validate : t -> unit
(** Raising wrapper over {!check} for callers that want the first error
    only. @raise Failure on violation. *)

val total_output_bytes : t -> int
(** Sum of every member node's output size (an upper bound on transient
    footprint, before liveness or reuse). *)

val fingerprint : t -> string
(** Canonical structural digest (32 hex chars): operators with every
    attribute exact ({!Op.key}: floats by their bits), shapes, regions, the
    names of feedable leaves (placeholders and variables), canonical
    (schedule-position) input edges and output list — never raw node ids,
    which are process-local, nor the names of constant leaves, which
    default to them. Two independent builds of the same model, in the same
    or different processes, fingerprint identically; inputs of commutative
    operators are sorted, so the digest is order-independent where that is
    legal. This is the only node-graph hash that may feed content-addressed
    cache keys ({!Echo_compiler.Pipeline.cache_key}); the ad-hoc keys
    inside [Echo_opt.Cse] embed raw ids and must not. *)

val pp_stats : Format.formatter -> t -> unit
val to_dot : t -> string
(** Graphviz rendering for debugging (small graphs only). *)
