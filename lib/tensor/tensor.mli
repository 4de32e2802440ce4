(** Dense row-major float tensors.

    The host representation is [float array] (double precision, which keeps
    numerical gradient checking accurate); the simulated GPU footprint model
    in [echo_exec] accounts tensors at 4 bytes/element, i.e. fp32 on device.

    Operations outside {!Into} allocate fresh result tensors; most are thin
    wrappers that allocate the result and call the {!Into} kernel of the
    same name. The exceptions are deliberate: {!softmax}, {!log_softmax},
    {!cross_entropy}, {!cross_entropy_grad}, {!embedding} and
    {!embedding_grad} keep their own loops because they are [Interp]'s
    reference, independent of the {!Into} kernels the executor runs; the
    test suite holds each pair equal bit for bit. Nothing aliases unless
    the documentation says so. Shape errors raise [Invalid_argument].

    The hot loops are C (lib/tensor/kernel_stubs.c): every matmul
    (gemm_kernel.h), and the elementwise ops, fused chains, [reduce_sum]
    and [add_bias] (elementwise_kernel.h), each body built twice — portable
    2-lane vectors and, on x86-64, 4-lane AVX2 vectors — with the build
    picked once per process ({!gemm_isa}); the slicing kernels copy their
    rows with one strided-copy call. Every kernel computes, per element,
    the OCaml scalar expression written beside its op in the C source
    (for [add], [x +. y]; for [scale k], [k *. x]), with no fused
    multiply-add, and keeps the first operand's NaN payload where two NaNs
    meet, so its bits do not depend on the build, the vector width or the
    domain count. The softmax family, cross-entropy, embeddings,
    convolutions, [transpose2d] and the optimizer updates stay OCaml
    loops. *)

type t

(** {1 Construction} *)

val create : Shape.t -> float array -> t
(** @raise Invalid_argument if the data length differs from [Shape.numel]. *)

val zeros : Shape.t -> t
val ones : Shape.t -> t
val full : Shape.t -> float -> t
val scalar : float -> t

val init : Shape.t -> (int array -> float) -> t
(** [init s f] fills by multi-index. *)

val of_list1 : float list -> t
(** 1-D tensor from a list. *)

val of_list2 : float list list -> t
(** 2-D tensor from rows. @raise Invalid_argument on ragged input. *)

val uniform : Rng.t -> Shape.t -> lo:float -> hi:float -> t
val normal : Rng.t -> Shape.t -> mean:float -> std:float -> t

val xavier : Rng.t -> Shape.t -> t
(** Glorot-uniform initialisation for a 2-D weight [ [|fan_out; fan_in|] ]. *)

(** {1 Access} *)

val shape : t -> Shape.t
val numel : t -> int
val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get1 : t -> int -> float
(** Linear (row-major) element access. *)

val set1 : t -> int -> float -> unit
val to_array : t -> float array
(** A fresh copy of the underlying buffer. *)

val unsafe_data : t -> float array
(** The underlying buffer itself, shared with [t]: writes through it change
    [t]. For code that streams every element without allocating — a float
    that {!get1} returns to another module is boxed. *)

val copy : t -> t

val flip_bit : t -> index:int -> bit:int -> unit
(** Flip one bit of the IEEE-754 representation of element
    [index mod numel t], in place — the single-event-upset primitive the
    fault-injection campaigns build on. [bit] 0 is the lowest mantissa bit,
    63 the sign. Deterministic: the same (index, bit) on the same tensor
    always produces the same value.
    @raise Invalid_argument on an empty tensor, a negative [index], or a
    [bit] outside 0..63. *)

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** @raise Invalid_argument on shape mismatch. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val sigmoid : t -> t
val tanh_ : t -> t
val relu : t -> t
val exp_ : t -> t
val log_ : t -> t
val sqrt_ : t -> t
val sq : t -> t
val pow_const : float -> t -> t
val recip : t -> t
val sign : t -> t

(** {1 Fused elementwise chains}

    A chain folds one scalar accumulator per output element: seeded from
    element [i] of operand 0, transformed by each step in order (a zip step
    additionally reads element [i] of the operand it indexes), and stored
    once at the end. Each step runs the same C kernel op as the
    corresponding {!Into} operation, so a fused chain is bit-identical to
    running its members unfused. *)

type fused_step

val f_neg : fused_step
val f_scale : float -> fused_step
val f_add_scalar : float -> fused_step
val f_pow_const : float -> fused_step
val f_sigmoid : fused_step
val f_tanh : fused_step
val f_relu : fused_step
val f_exp : fused_step
val f_log : fused_step
val f_sqrt : fused_step
val f_sq : fused_step
val f_recip : fused_step
val f_sign : fused_step

val f_add : int -> fused_step
(** [f_add j]: accumulator [+.] element [i] of operand [j]. Likewise below;
    operand indices refer to the array passed to {!Into.fused}. *)

val f_sub : int -> fused_step
val f_mul : int -> fused_step
val f_div : int -> fused_step

val f_scale_by : int -> fused_step
(** Multiply by the scalar tensor at operand [j] (its element 0, read once
    per kernel launch, exactly like {!Into.scale_by}). *)

(** {1 Linear algebra} *)

val matmul : ?trans_a:bool -> ?trans_b:bool -> t -> t -> t
(** 2-D GEMM; transposes are logical (no materialisation).
    @raise Invalid_argument if operands are not 2-D or inner dims differ. *)

val add_bias : t -> t -> t
(** [add_bias m b] adds 1-D [b] to every row of 2-D [m]. *)

val outer : t -> t -> t
(** Outer product of two 1-D tensors. *)

(** {1 Shape manipulation} *)

val reshape : t -> Shape.t -> t
(** Shares no storage with the argument. @raise Invalid_argument if element
    counts differ. *)

val transpose2d : t -> t
val slice : axis:int -> lo:int -> hi:int -> t -> t
val concat : axis:int -> t list -> t
(** @raise Invalid_argument on an empty list or mismatched off-axis dims. *)

val pad_slice : axis:int -> lo:int -> full:int -> t -> t
(** Inverse of {!slice} for gradients: embed [t] into a zero tensor whose
    [axis] dimension is [full], starting at offset [lo]. *)

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_elt : t -> float
val reduce_sum : axis:int -> keepdims:bool -> t -> t
val reduce_mean : axis:int -> keepdims:bool -> t -> t
val broadcast_axis : axis:int -> n:int -> t -> t
(** Repeat a size-1 axis [n] times (gradient of [reduce_* ~keepdims:true]).
    @raise Invalid_argument if [dim t axis <> 1]. *)

val frobenius : t -> float

(** {1 Neural-network kernels} *)

val softmax : t -> t
(** Softmax over the last axis, numerically stabilised. *)

val log_softmax : t -> t

val cross_entropy : logits:t -> labels:t -> float
(** Mean negative log-likelihood. [logits] is [B x V]; [labels] is a length-B
    tensor of class indices stored as floats. *)

val cross_entropy_grad : logits:t -> labels:t -> t
(** d(mean NLL)/d(logits) = (softmax - onehot) / B. *)

val dropout_mask : seed:int -> p:float -> Shape.t -> t
(** Inverted-dropout mask: each element is [0] with probability [p], else
    [1/(1-p)]. Deterministic in [seed]. *)

val embedding : table:t -> ids:t -> t
(** [table] is [V x D]; [ids] is length-B; result is [B x D]. *)

val embedding_grad : table_shape:Shape.t -> ids:t -> grad_out:t -> t
(** Scatter-add of [grad_out] rows into a zero [V x D] table. *)

val conv2d : stride:int -> pad:int -> input:t -> kernel:t -> t
(** [input]: [B x Cin x H x W]; [kernel]: [Cout x Cin x Kh x Kw]. Naive
    direct convolution ({!Into.conv2d} into a fresh tensor).
    @raise Invalid_argument on a rank or channel mismatch, or when the
    output would have no rows or columns. *)

val conv2d_grad_input : stride:int -> pad:int -> input_shape:Shape.t -> kernel:t -> grad_out:t -> t
val conv2d_grad_kernel : stride:int -> pad:int -> input:t -> kernel_shape:Shape.t -> grad_out:t -> t

(** {1 Destination-passing kernels}

    Allocation-free variants used by the compiled executor
    ([Echo_compiler.Executor]). Each writes its result into [~dst], a
    preallocated tensor of exactly the result shape, and computes values
    bit-identical to the allocating operation of the same name: both share
    the same scalar kernels and the same accumulation order. Unless noted
    otherwise, [dst] may alias an input of the same element count — every
    kernel reads each cell before overwriting it — which is what the
    executor's in-place buffer transfer relies on.

    Heavy kernels take a [?runtime] ({!Parallel.t}, default
    {!Parallel.sequential}) and partition their output — rows for matrix
    kernels, the flat index range for elementwise ones — across the
    runtime's domains, passing {!Parallel.parallel_for} a work hint
    (scalar ops per index) so small kernels stay on the calling domain.
    Each output element is computed by exactly one domain in the
    sequential per-element accumulation order, so results stay
    bit-identical at every domain count and under the runtime's
    deterministic work-stealing schedule. The runtime handle carries the
    fan-out configuration — there is no process-global kernel
    configuration. *)
module Into : sig
  val fill : dst:t -> float -> unit

  val blit : src:t -> dst:t -> unit
  (** Raw element copy; shapes may differ as long as element counts match
      (this is the compiled [Reshape]). *)

  val neg : ?runtime:Parallel.t -> t -> dst:t -> unit
  val scale : ?runtime:Parallel.t -> float -> t -> dst:t -> unit
  val add_scalar : ?runtime:Parallel.t -> float -> t -> dst:t -> unit
  val pow_const : ?runtime:Parallel.t -> float -> t -> dst:t -> unit
  val sigmoid : ?runtime:Parallel.t -> t -> dst:t -> unit
  val tanh_ : ?runtime:Parallel.t -> t -> dst:t -> unit
  val relu : ?runtime:Parallel.t -> t -> dst:t -> unit
  val exp_ : ?runtime:Parallel.t -> t -> dst:t -> unit
  val log_ : ?runtime:Parallel.t -> t -> dst:t -> unit
  val sqrt_ : ?runtime:Parallel.t -> t -> dst:t -> unit
  val sq : ?runtime:Parallel.t -> t -> dst:t -> unit
  val recip : ?runtime:Parallel.t -> t -> dst:t -> unit
  val sign : ?runtime:Parallel.t -> t -> dst:t -> unit
  val add : ?runtime:Parallel.t -> t -> t -> dst:t -> unit
  val sub : ?runtime:Parallel.t -> t -> t -> dst:t -> unit
  val mul : ?runtime:Parallel.t -> t -> t -> dst:t -> unit
  val div : ?runtime:Parallel.t -> t -> t -> dst:t -> unit

  val scale_by : ?runtime:Parallel.t -> t -> t -> dst:t -> unit
  (** [scale_by x s ~dst] scales [x] by the scalar tensor [s]. *)

  val fused : ?runtime:Parallel.t -> fused_step array -> t array -> dst:t -> unit
  (** [fused steps operands ~dst] evaluates a fused elementwise chain in one
      pass: per element the accumulator is seeded from [operands.(0)], each
      step applies in order, and only the final value is written to [dst].
      [dst] may alias any operand (element [i] of every operand is read
      before element [i] of [dst] is written). Partitioned with the same
      flat-index chunking as the unfused elementwise kernels, so results are
      bit-identical at every domain count and to the unfused chain.
      @raise Invalid_argument if a zip operand's shape differs from the
      seed's, or a step's operand index is outside [operands]. *)

  val matmul :
    ?runtime:Parallel.t -> ?trans_a:bool -> ?trans_b:bool -> t -> t -> dst:t -> unit
  (** [dst] must not alias an operand (a GEMM cannot run in place).

      Each output element accumulates from [+0] over ascending inner index,
      skipping terms whose [a] element is exactly zero. Every product runs
      one C SIMD kernel ({!gemm_isa}) in which each vector lane is one
      output element's chain, with no fused multiply-add. It adds the
      zero-[a] terms instead of skipping them, which cannot change an
      output it stores as a non-NaN; every NaN it stores is recomputed by
      the skipping chain. So results equal the skipping triple loop bit
      for bit. *)

  val add_bias : ?runtime:Parallel.t -> t -> t -> dst:t -> unit

  (** {2 Optimizer updates}

      One sequential pass per update rule. Per element each kernel applies
      the same operations in the same order as the rule written with the
      allocating ops, so results are bit-identical to that formulation.
      The slot tensors ([velocity], [m], [v]) are updated in place, and
      [dst] may alias [param].
      @raise Invalid_argument if any tensor's shape differs from [param]'s. *)

  val sgd : lr:float -> param:t -> grad:t -> dst:t -> unit
  (** [dst = param - lr * grad]. *)

  val momentum :
    lr:float -> momentum:float -> param:t -> grad:t -> velocity:t -> dst:t -> unit
  (** [velocity <- momentum * velocity + grad];
      [dst = param - lr * velocity]. *)

  val adam :
    lr:float ->
    beta1:float ->
    beta2:float ->
    eps:float ->
    step:int ->
    param:t ->
    grad:t ->
    m:t ->
    v:t ->
    dst:t ->
    unit
  (** [m <- beta1 * m + (1 - beta1) * grad];
      [v <- beta2 * v + (1 - beta2) * grad^2];
      [dst = param - lr * m_hat / (eps + sqrt v_hat)], with
      [m_hat = m / (1 - beta1^step)] and [v_hat = v / (1 - beta2^step)]
      (each applied as a multiplication by the reciprocal). *)

  val slice : axis:int -> lo:int -> hi:int -> t -> dst:t -> unit
  val pad_slice : axis:int -> lo:int -> full:int -> t -> dst:t -> unit
  val concat : axis:int -> t list -> dst:t -> unit

  val transpose2d : ?runtime:Parallel.t -> t -> dst:t -> unit
  (** [dst] must not alias the input. *)

  val reduce_sum : ?runtime:Parallel.t -> axis:int -> keepdims:bool -> t -> dst:t -> unit
  (** Each output element accumulates [acc +. x] from [+0] over the
      reduced axis in ascending order. *)

  val reduce_mean : ?runtime:Parallel.t -> axis:int -> keepdims:bool -> t -> dst:t -> unit
  val broadcast_axis : axis:int -> n:int -> t -> dst:t -> unit
  val softmax : ?runtime:Parallel.t -> t -> dst:t -> unit
  val log_softmax : ?runtime:Parallel.t -> t -> dst:t -> unit

  val cross_entropy : logits:t -> labels:t -> dst:t -> unit
  (** [dst] must be a scalar tensor; receives the mean NLL. *)

  val cross_entropy_grad :
    ?runtime:Parallel.t -> logits:t -> labels:t -> dst:t -> unit -> unit

  val embedding : ?runtime:Parallel.t -> table:t -> ids:t -> dst:t -> unit -> unit

  val embedding_grad :
    ?runtime:Parallel.t -> ids:t -> grad_out:t -> dst:t -> unit -> unit
  (** The table shape is taken from [dst]. Parallelised over destination
      table rows (ids repeat), never over input rows. The trailing [unit]
      anchors the optional [?runtime] (no positional operand exists). *)

  (** {2 Convolution}

      Sequential, and [dst] must not alias an operand. Each output element
      accumulates in the same loop order as the allocating {!conv2d}
      family, so the results are bit-identical to it. *)

  val conv2d : stride:int -> pad:int -> input:t -> kernel:t -> dst:t -> unit
  (** Writes each [dst] element exactly once. *)

  val conv2d_grad_input :
    stride:int -> pad:int -> kernel:t -> grad_out:t -> dst:t -> unit
  (** The input shape is taken from [dst], which is zero-filled and then
      scatter-added into; zero [grad_out] elements are skipped. *)

  val conv2d_grad_kernel :
    stride:int -> pad:int -> input:t -> grad_out:t -> dst:t -> unit
  (** The kernel shape is taken from [dst], which is zero-filled and then
      scatter-added into; zero [grad_out] elements are skipped. *)
end

val gemm_isa : unit -> string
(** The build of the C kernels in use, matmul and elementwise alike:
    ["avx2"] (4-lane vectors, 4x8 GEMM tiles) where the CPU supports it,
    else the portable 2-lane build, ["sse2"] on x86-64, ["neon"] on arm64
    or ["generic"]. Picked once, when this module is initialised. *)

(** Test-only hooks. *)
module For_testing : sig
  val with_portable_kernels : (unit -> 'a) -> 'a
  (** [with_portable_kernels f] runs [f] with every C kernel (matmul and
      elementwise) on the portable build, then restores the dispatched
      one. No other domain may be inside a kernel while it switches. *)
end

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Equal shapes and elementwise float [=]: [-0.] equals [+0.] and a NaN
    equals nothing. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Max-absolute-difference comparison; default [tol = 1e-9]. *)

val max_abs_diff : t -> t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
