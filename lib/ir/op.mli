(** The operator vocabulary of the dataflow IR.

    Every tensor program in this repository — forward models, the symbolic
    backward pass produced by [echo_autodiff], and the recomputation clones
    inserted by the Echo pass — is a DAG of these operators. Gradient rules
    are expressed in the same vocabulary wherever mathematically possible so
    that the backward graph consumes genuine forward feature maps; the few
    fused gradient operators ([CrossEntropyGrad], [EmbeddingGrad], the conv
    gradients) exist because their math does not decompose usefully. *)

open Echo_tensor

type t =
  (* Leaves *)
  | Placeholder  (** runtime input (data, labels); shape fixed at creation *)
  | Variable  (** trainable parameter; persistent across iterations *)
  | Zeros  (** constant zero tensor *)
  | ConstFill of float  (** constant tensor filled with one value *)
  | DropoutMask of { p : float; seed : int }
      (** inverted-dropout mask, deterministic in [seed]; recomputable *)
  (* Elementwise, unary *)
  | Neg
  | Scale of float
  | AddScalar of float
  | PowConst of float
  | Sigmoid
  | Tanh
  | Relu
  | Exp
  | Log
  | Sqrt
  | Sq
  | Recip
  | Sign
  (* Elementwise, binary (identical shapes) *)
  | Add
  | Sub
  | Mul
  | Div
  (* Linear algebra *)
  | Matmul of { trans_a : bool; trans_b : bool }
  | AddBias  (** 2-D matrix + 1-D row bias *)
  | ScaleBy  (** (tensor, scalar tensor) -> tensor; elementwise scaling *)
  (* Shape manipulation *)
  | Slice of { axis : int; lo : int; hi : int }
  | PadSlice of { axis : int; lo : int; full : int }  (** gradient of Slice *)
  | Concat of { axis : int }  (** n-ary *)
  | Reshape of Shape.t
  | Transpose2d
  (* Reductions / broadcast *)
  | ReduceSum of { axis : int; keepdims : bool }
  | ReduceMean of { axis : int; keepdims : bool }
  | BroadcastAxis of { axis : int; n : int }
  (* Neural-network kernels *)
  | Softmax  (** over the last axis *)
  | LogSoftmax
  | CrossEntropy  (** (logits, labels) -> scalar mean NLL *)
  | CrossEntropyGrad  (** (logits, labels) -> d loss/d logits *)
  | Embedding  (** (table, ids) -> gathered rows *)
  | EmbeddingGrad of { vocab : int }  (** (ids, grad_out) -> table gradient *)
  | Conv2d of { stride : int; pad : int }
  | Conv2dGradInput of { stride : int; pad : int; input_shape : Shape.t }
  | Conv2dGradKernel of { stride : int; pad : int; kernel_shape : Shape.t }

val arity : t -> int option
(** Expected number of inputs; [None] for variadic ([Concat]). *)

val is_leaf : t -> bool
(** True for operators with no tensor inputs. *)

val is_pure : t -> bool
(** True when re-executing the operator on the same inputs yields bitwise
    identical results. Everything here is pure — including [DropoutMask],
    which is seeded — but the predicate is the single point of truth the
    recomputation pass consults. *)

val is_cheap : t -> bool
(** True for operators whose cost is elementwise/launch-bound (no GEMM or
    convolution work): the fast-path recomputation candidates. *)

val is_recomputable : t -> bool
(** True when the Echo pass may clone this node into the backward region:
    pure and not a runtime input or a trainable parameter. *)

val infer_shape : t -> Shape.t list -> Shape.t option -> Shape.t
(** [infer_shape op input_shapes explicit] computes the output shape.
    [explicit] supplies the shape for leaves ([Placeholder], [Variable],
    [Zeros], [ConstFill], [DropoutMask]); it must be [None] elsewhere.
    @raise Invalid_argument on rank/dimension errors. *)

val to_string : t -> string
(** Display form: floats print with [%g], so it may merge distinct ops. *)

val key : t -> string
(** Exact structural key: two operators share a key exactly when they have
    the same constructor and attributes, float attributes compared bit for
    bit. Content-addressed and structural-equality uses
    ([Graph.fingerprint], [Echo_opt.Cse]) key on this, never on
    {!to_string}. For an operator without float or shape attributes the
    key is its {!to_string}. *)

val pp : Format.formatter -> t -> unit
