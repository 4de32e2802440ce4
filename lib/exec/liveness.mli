(** Buffer liveness over a graph's schedule.

    A node's output buffer is born at its schedule position and dies right
    after its last consumer executes; graph outputs live to the end of the
    iteration. Persistent nodes ([Variable], [Placeholder]) are allocated
    outside the transient arena and are never part of the intervals here.

    The analysis is kept by schedule slot: the last read of the buffer
    each slot defines, and the slots dying at each step, read off the
    graph's slot-indexed consumer edges in one pass. *)

open Echo_ir

type interval = {
  node : Node.t;
  def_step : int;  (** schedule index at which the buffer is produced *)
  last_step : int;  (** schedule index of the last read; [max_int] = end *)
}

type t

val analyse : ?fusion:Fuse.plan -> Graph.t -> t
(** With [?fusion], fused interiors get no interval (they never
    materialize), and every buffer a group member reads stays live to the
    group root's step — that is where the fused kernel actually reads it. *)

val of_intervals : steps:int -> interval list -> t
(** An analysis rebuilt from explicit intervals (death table re-derived
    from the [last_step]s), at most one per [def_step]. [Memplan.plan ?liveness] frees buffers off
    whatever analysis it is handed and the executor allocates the plan it
    is given, so this is how the race-verify mutation harness turns a
    corrupted interval list into a real executor whose early frees the
    dynamic sanitizer must catch. *)

val intervals : t -> interval list
(** One interval per non-persistent node, in schedule order. *)

val interval : t -> int -> interval
(** By node id. @raise Not_found for persistent nodes or foreign ids. *)

val step_count : t -> int

val dying_at : t -> int -> Node.t list
(** Buffers whose last read is the given step (and which may therefore be
    freed once that step completes). Outputs never appear. *)

val last_read : t -> int -> int
(** By slot: the [last_step] of the interval the slot defines, [-1] when
    it defines none. *)

val iter_dying_slots : t -> int -> (int -> unit) -> unit
(** The defining slots of {!dying_at}'s buffers, in interval order. *)

val is_persistent : Node.t -> bool
(** [Variable] and [Placeholder] nodes. *)

val crosses_into_backward : t -> Graph.t -> int -> bool
(** True when the (forward) node with this id has at least one backward
    consumer — i.e. its buffer is a stashed feature map. *)

val stash_bytes : t -> Graph.t -> int
(** Total bytes of forward feature maps with a backward consumer: the
    quantity Echo exists to shrink. *)
