(** First-order optimizers over positional (parameter, gradient) arrays.

    State is keyed by parameter node id and lives on the host: each step
    updates the slot tensors (velocity, second moment) in place, through one
    [Echo_tensor.Tensor.Into] pass per parameter. {!step_arrays} returns
    fresh parameter tensors and never mutates the ones passed in;
    {!step_in_place} overwrites them. Both compute the same bits. The
    simulated-GPU footprint of the state is accounted analytically by
    [Echo_exec.Footprint]. *)

open Echo_tensor
open Echo_ir

type t

type spec =
  | Sgd of { lr : float }
  | Momentum of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

val create : spec -> t

val footprint_kind : t -> Echo_exec.Footprint.optimizer

val step_arrays :
  t -> param_nodes:Node.t array -> params:Tensor.t array -> grads:Tensor.t array
  -> Tensor.t array
(** One update; returns the new parameter values in [params] order.
    [grads.(i)] is the gradient of [param_nodes.(i)] (positional pairing, no
    id lookup). Shares the update rule — and the optimizer state — with
    {!step_in_place}.
    @raise Invalid_argument naming the three lengths on a mismatch. *)

val step_in_place :
  t -> param_nodes:Node.t array -> params:Tensor.t array -> grads:Tensor.t array
  -> unit
(** {!step_arrays} without the fresh tensors: overwrites each [params.(i)]
    with its updated value, bit-identical to what {!step_arrays} returns.
    The compiled training loop's entry point; it owns the parameter
    tensors it passes. [grads.(i)] may alias [params.(i)].
    @raise Invalid_argument naming the three lengths on a mismatch. *)

(** {1 Checkpointing} *)

type snapshot = {
  steps : int;  (** the optimizer's step counter (Adam bias correction) *)
  velocity : (int * Tensor.t) list;
      (** momentum / Adam first moment, keyed by parameter index *)
  second : (int * Tensor.t) list;  (** Adam second moment, same keying *)
}
(** Optimizer state detached from process-local node ids: slot tensors are
    keyed by position in [param_nodes], so a snapshot serialised by
    [Echo_runtime.Checkpoint] restores exactly in a fresh process whose
    rebuilt graph has different ids. *)

val snapshot : t -> param_nodes:Node.t array -> snapshot
(** The current state, without copying: the slot tensors are the
    optimizer's live ones, so the next {!step_in_place} or {!step_arrays}
    changes them — serialise (or [Tensor.copy]) before stepping again.
    Parameters with no slot yet (e.g. before the first step, or plain SGD)
    are simply absent from the lists. *)

val restore : t -> param_nodes:Node.t array -> snapshot -> unit
(** Replace [t]'s entire state with [snapshot], re-keying by [param_nodes].
    Subsequent updates are bit-identical to an optimizer that never paused.
    @raise Invalid_argument if a snapshot index is out of range. *)

val global_norm : Tensor.t array -> float
(** The square root of the sum, in array order, of each gradient's squared
    Frobenius norm — the norm {!clip_by_global_norm_arrays} compares with
    [max_norm]. *)

val clip_by_global_norm_arrays : max_norm:float -> Tensor.t array -> Tensor.t array
(** Standard RNN-training gradient clipping: when the global norm of the
    gradients exceeds [max_norm], returns them scaled by
    [max_norm / norm] in fresh tensors; otherwise returns the input
    array. *)

val clip_by_global_norm_into :
  max_norm:float -> Tensor.t array -> dst:Tensor.t array -> Tensor.t array
(** {!clip_by_global_norm_arrays} scaling into caller-owned buffers: returns
    the input array when no clipping is needed, otherwise writes each scaled
    gradient into [dst.(i)] (same shape as the gradient) and returns [dst].
    Bit-identical to {!clip_by_global_norm_arrays}. *)
