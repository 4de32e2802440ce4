(** Immutable dataflow nodes.

    A node owns a unique process-wide integer id; ids increase in creation
    order, which the scheduler exploits to produce a deterministic
    program-order execution plan. Output shapes are inferred eagerly at
    construction, so an ill-shaped graph cannot be built. *)

open Echo_tensor

type region =
  | Forward  (** executes during the forward pass *)
  | Backward  (** executes during the backward pass (gradients, recomputes) *)

type t = private {
  id : int;
  name : string;
  op : Op.t;
  inputs : t list;
  shape : Shape.t;
  region : region;
  hint : float;
      (** scheduling priority consumed by [Graph]: smaller runs earlier
          among ready nodes. Defaults to the creation id, i.e. program
          order; graph rewrites assign clones a hint just below their first
          consumer's so recomputation runs just-in-time. *)
}

val create :
  ?name:string ->
  ?region:region ->
  ?shape:Shape.t ->
  ?hint:float ->
  Op.t ->
  t list ->
  t
(** General constructor. [shape] is required for leaves and forbidden
    otherwise; [region] defaults to [Forward]; [hint] defaults to the
    creation id (program order).
    @raise Invalid_argument on arity or shape errors. *)

val clone_with_inputs :
  ?region:region -> ?name:string -> ?hint:float -> t -> t list -> t
(** Fresh node with the same operator but new inputs (and optionally a new
    region/name/hint) — the primitive used by graph rewrites. The hint
    defaults to the cloned node's. *)

val id : t -> int
val hint : t -> float
val shape : t -> Shape.t
val op : t -> Op.t
val inputs : t -> t list
val region : t -> region
val name : t -> string

val size_bytes : t -> int
(** Device footprint of the node's output: 4 bytes per element (fp32). *)

val equal : t -> t -> bool
(** Identity (same id). *)

val compare : t -> t -> int

(** {1 Construction DSL}

    Thin wrappers over {!create} used by models and the autodiff engine.
    Binary elementwise ops require identical shapes. *)

val placeholder : ?name:string -> Shape.t -> t
val variable : ?name:string -> Shape.t -> t
val zeros : ?name:string -> ?region:region -> Shape.t -> t
val const_fill : ?name:string -> ?region:region -> float -> Shape.t -> t
val dropout_mask : ?name:string -> p:float -> seed:int -> Shape.t -> t
val add : ?region:region -> t -> t -> t
val sub : ?region:region -> t -> t -> t
val mul : ?region:region -> t -> t -> t
val div : ?region:region -> t -> t -> t
val neg : ?region:region -> t -> t
val scale : ?region:region -> float -> t -> t
val add_scalar : ?region:region -> float -> t -> t
val pow_const : ?region:region -> float -> t -> t
val sigmoid : ?name:string -> ?region:region -> t -> t
val tanh_ : ?name:string -> ?region:region -> t -> t
val relu : ?name:string -> ?region:region -> t -> t
val exp_ : ?region:region -> t -> t
val log_ : ?region:region -> t -> t
val sqrt_ : ?region:region -> t -> t
val sq : ?region:region -> t -> t
val recip : ?region:region -> t -> t
val sign : ?region:region -> t -> t
val matmul :
  ?name:string -> ?region:region -> ?trans_a:bool -> ?trans_b:bool -> t -> t -> t
val add_bias : ?name:string -> ?region:region -> t -> t -> t
val scale_by : ?region:region -> t -> t -> t
val slice : ?name:string -> ?region:region -> axis:int -> lo:int -> hi:int -> t -> t
val pad_slice : ?region:region -> axis:int -> lo:int -> full:int -> t -> t
val concat : ?name:string -> ?region:region -> axis:int -> t list -> t
val reshape : ?region:region -> Shape.t -> t -> t
val transpose2d : ?region:region -> t -> t
val reduce_sum : ?region:region -> axis:int -> keepdims:bool -> t -> t
val reduce_mean : ?region:region -> axis:int -> keepdims:bool -> t -> t
val broadcast_axis : ?region:region -> axis:int -> n:int -> t -> t
val softmax : ?name:string -> ?region:region -> t -> t
val log_softmax : ?name:string -> ?region:region -> t -> t
val cross_entropy : logits:t -> labels:t -> t
val cross_entropy_grad : logits:t -> labels:t -> t
  (** Always created in the [Backward] region. *)

val embedding : table:t -> ids:t -> t
val embedding_grad : vocab:int -> ids:t -> grad_out:t -> t
  (** Always created in the [Backward] region. *)

val conv2d : stride:int -> pad:int -> input:t -> kernel:t -> t

val pp : Format.formatter -> t -> unit
(** One line: [#id name op shape region]. *)
