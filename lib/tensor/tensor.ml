(* A tensor is a view: its [len] elements are [data.(off)] onwards, in
   row-major order. [data] may be longer and hold other tensors too (the
   executor's slab), so no code here reads [data] outside
   [off, off + len). [len] caches [Shape.numel shape], so a bounds check
   costs one comparison. kernel_stubs.c reads [data] as field 1 and [off]
   as field 2. *)
type t = { shape : Shape.t; data : float array; off : int; len : int }

(* {1 Construction} *)

let create shape data =
  Shape.validate shape;
  if Array.length data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.create: %d elements for shape %s"
         (Array.length data) (Shape.to_string shape));
  { shape; data; off = 0; len = Array.length data }

let view data ~off shape =
  Shape.validate shape;
  let len = Shape.numel shape in
  if off < 0 || off + len > Array.length data then
    invalid_arg
      (Printf.sprintf "Tensor.view: %s at offset %d overruns %d elements"
         (Shape.to_string shape) off (Array.length data));
  { shape; data; off; len }

let full shape v = create shape (Array.make (Shape.numel shape) v)
let zeros shape = full shape 0.0
let ones shape = full shape 1.0
let scalar v = create Shape.scalar [| v |]

let init shape f =
  let n = Shape.numel shape in
  let data = Array.init n (fun off -> f (Shape.unravel shape off)) in
  create shape data

let of_list1 xs = create [| List.length xs |] (Array.of_list xs)

let of_list2 rows =
  match rows with
  | [] -> invalid_arg "Tensor.of_list2: empty"
  | first :: _ ->
    let m = List.length rows and n = List.length first in
    List.iter
      (fun r -> if List.length r <> n then invalid_arg "Tensor.of_list2: ragged rows")
      rows;
    create [| m; n |] (Array.of_list (List.concat rows))

let uniform rng shape ~lo ~hi =
  create shape (Array.init (Shape.numel shape) (fun _ -> Rng.uniform rng ~lo ~hi))

let normal rng shape ~mean ~std =
  create shape (Array.init (Shape.numel shape) (fun _ -> mean +. (std *. Rng.normal rng)))

let xavier rng shape =
  if Shape.rank shape <> 2 then invalid_arg "Tensor.xavier: expects a 2-D shape";
  let fan_out = shape.(0) and fan_in = shape.(1) in
  let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  uniform rng shape ~lo:(-.bound) ~hi:bound

(* {1 Access} *)

let shape t = t.shape
let numel t = t.len
let get t idx = t.data.(t.off + Shape.ravel t.shape idx)
let set t idx v = t.data.(t.off + Shape.ravel t.shape idx) <- v

(* C accessors with an unboxed float, so a loop in another module that
   streams a view allocates nothing (an OCaml function returning a float
   across modules returns it boxed). *)
external unsafe_get1 : t -> (int[@untagged]) -> (float[@unboxed])
  = "echo_tensor_get_byte" "echo_tensor_get"
[@@noalloc]

(* Bounds are the view's, not the backing array's. *)
let get1 t i =
  if i < 0 || i >= t.len then invalid_arg "Tensor.get1: index out of bounds";
  Array.unsafe_get t.data (t.off + i)

let set1 t i v =
  if i < 0 || i >= t.len then invalid_arg "Tensor.set1: index out of bounds";
  Array.unsafe_set t.data (t.off + i) v

let to_array t = Array.sub t.data t.off (numel t)
let copy t = { t with data = to_array t; off = 0 }

let flip_bit t ~index ~bit =
  if bit < 0 || bit > 63 then
    invalid_arg (Printf.sprintf "Tensor.flip_bit: bit %d outside 0..63" bit);
  let n = numel t in
  if n = 0 then invalid_arg "Tensor.flip_bit: empty tensor";
  if index < 0 then invalid_arg "Tensor.flip_bit: negative index";
  let i = t.off + (index mod n) in
  t.data.(i) <-
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float t.data.(i)) (Int64.shift_left 1L bit))

(* {1 Elementwise} *)

let map f t =
  let o = t.off in
  { t with data = Array.init t.len (fun i -> f t.data.(o + i)); off = 0 }

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg
      (Printf.sprintf "Tensor.map2: shape mismatch %s vs %s"
         (Shape.to_string a.shape) (Shape.to_string b.shape));
  let ao = a.off and bo = b.off in
  {
    a with
    data = Array.init a.len (fun i -> f a.data.(ao + i) b.data.(bo + i));
    off = 0;
  }

(* The allocating elementwise wrappers ([add], [sigmoid], ...) are defined
   after [Into]: each allocates [dst] and delegates to the corresponding
   [Into] kernel, so there is exactly one loop body per op. *)

(* {1 Fused elementwise chains}

   A fused chain folds one scalar accumulator per output element through a
   sequence of steps: the accumulator is seeded from element [i] of
   [operands.(0)], each step transforms it (optionally reading element [i]
   of another operand), and only the final value is stored. Each step is
   the same C kernel op an unfused [Into] kernel runs, so a fused chain is
   bit-identical to running its members one at a time. *)

(* A closed opcode variant, one constructor per kernel op, which the C
   kernels decode in place (kernel_stubs.c): the constant constructors
   and, in a second group, the constructors with an argument, each in the
   order of the stub's opcode tables — keep the two in step. Binary steps
   carry the index of the operand they read. *)
type fused_step =
  | F_neg
  | F_sigmoid
  | F_tanh
  | F_relu
  | F_exp
  | F_log
  | F_sqrt
  | F_sq
  | F_recip
  | F_sign
  | F_scale of float
  | F_add_scalar of float
  | F_pow_const of float
  | F_add of int
  | F_sub of int
  | F_mul of int
  | F_div of int
  | F_scale_by of int

let f_neg = F_neg
let f_scale k = F_scale k
let f_add_scalar k = F_add_scalar k
let f_pow_const p = F_pow_const p
let f_sigmoid = F_sigmoid
let f_tanh = F_tanh
let f_relu = F_relu
let f_exp = F_exp
let f_log = F_log
let f_sqrt = F_sqrt
let f_sq = F_sq
let f_recip = F_recip
let f_sign = F_sign
let f_add j = F_add j
let f_sub j = F_sub j
let f_mul j = F_mul j
let f_div j = F_div j
let f_scale_by j = F_scale_by j

let fused_step_operand = function
  | F_add j | F_sub j | F_mul j | F_div j | F_scale_by j -> Some j
  | F_neg | F_scale _ | F_add_scalar _ | F_pow_const _ | F_sigmoid | F_tanh
  | F_relu | F_exp | F_log | F_sqrt | F_sq | F_recip | F_sign ->
    None

(* Scalar work estimate per element, in units of one float op. Matches the
   transcendental weight of the simulator's cost model
   ([Echo_gpusim.Costmodel.transcendental]); the runtime's fan-out gate and
   the host-side fusion cost model both consume it, so the gate the
   executor applies and the gate the planner predicts are the same. *)
let fused_step_work = function
  | F_pow_const _ | F_sigmoid | F_tanh | F_exp | F_log | F_sqrt -> 8
  | F_neg | F_scale _ | F_add_scalar _ | F_relu | F_sq | F_recip | F_sign
  | F_add _ | F_sub _ | F_mul _ | F_div _ | F_scale_by _ ->
    1

(* {1 Linear algebra} *)

(* [matmul] and [add_bias] are defined after [Into]: there is exactly one
   implementation of each ([Into.matmul], [Into.add_bias]); the allocating
   version allocates [dst] and delegates, so the two code paths cannot
   diverge. *)

let outer a b =
  if Shape.rank a.shape <> 1 || Shape.rank b.shape <> 1 then
    invalid_arg "Tensor.outer: expects 1-D operands";
  let m = a.shape.(0) and n = b.shape.(0) in
  let ad = a.data and bd = b.data and ao = a.off and bo = b.off in
  let out = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    let ai = Array.unsafe_get ad (ao + i) in
    let row = i * n in
    for j = 0 to n - 1 do
      Array.unsafe_set out (row + j) (ai *. Array.unsafe_get bd (bo + j))
    done
  done;
  create [| m; n |] out

(* {1 Shape manipulation} *)

let reshape t shape =
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s -> %s" (Shape.to_string t.shape)
         (Shape.to_string shape));
  { shape; data = to_array t; off = 0; len = t.len }

(* [transpose2d], [slice], [concat] and [pad_slice] are defined after
   [Into] and delegate to it, like [matmul]. *)

(* Row-major layout means a tensor decomposes around [axis] as
   outer * axis_dim * inner contiguous blocks: [outer_blocks] is the product
   of the dims before [axis], [inner_blocks] of those after it. Plain loops
   returning ints, so the per-call copy kernels allocate nothing. *)
let outer_blocks shape axis =
  let p = ref 1 in
  for i = 0 to axis - 1 do
    p := !p * shape.(i)
  done;
  !p

let inner_blocks shape axis =
  let p = ref 1 in
  for i = axis + 1 to Array.length shape - 1 do
    p := !p * shape.(i)
  done;
  !p

(* {1 Reductions} *)

(* Plain loops over the view, in the order of a left fold from the
   start value. *)
let sum t =
  let d = t.data and o = t.off in
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. Array.unsafe_get d (o + i)
  done;
  !acc

let mean t = sum t /. float_of_int (numel t)

let max_elt t =
  let d = t.data and o = t.off in
  let acc = ref neg_infinity in
  for i = 0 to numel t - 1 do
    acc := Float.max !acc (Array.unsafe_get d (o + i))
  done;
  !acc

(* [reduce_sum], [reduce_mean] and [broadcast_axis] are defined after
   [Into] and delegate to it. *)

let reduce_shape ~axis ~keepdims shape =
  if axis < 0 || axis >= Shape.rank shape then invalid_arg "Tensor.reduce: bad axis";
  if keepdims then Array.mapi (fun i d -> if i = axis then 1 else d) shape
  else begin
    match Array.length shape with
    | 1 -> Shape.scalar
    | n ->
      let out = Array.make (n - 1) 0 in
      let j = ref 0 in
      Array.iteri
        (fun i d ->
          if i <> axis then begin
            out.(!j) <- d;
            incr j
          end)
        shape;
      out
  end

(* A plain loop, not [Array.fold_left]: the fold's closure would box the
   float accumulator on every element. *)
let frobenius t =
  let d = t.data and o = t.off in
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    let x = Array.unsafe_get d (o + i) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

(* {1 Neural-network kernels} *)

(* Softmax over the last axis, shared by softmax / log_softmax / xent. *)
let rows_of t =
  let r = Shape.rank t.shape in
  if r = 0 then invalid_arg "Tensor: scalar has no softmax axis";
  let cols = t.shape.(r - 1) in
  (numel t / cols, cols)

let softmax t =
  let rows, cols = rows_of t in
  let out = Array.make (numel t) 0.0 in
  let s = t.data in
  for r = 0 to rows - 1 do
    let base = r * cols in
    let sb = t.off + base in
    let m = ref neg_infinity in
    for j = 0 to cols - 1 do
      if s.(sb + j) > !m then m := s.(sb + j)
    done;
    let z = ref 0.0 in
    for j = 0 to cols - 1 do
      let e = exp (s.(sb + j) -. !m) in
      out.(base + j) <- e;
      z := !z +. e
    done;
    for j = 0 to cols - 1 do
      out.(base + j) <- out.(base + j) /. !z
    done
  done;
  create t.shape out

let log_softmax t =
  let rows, cols = rows_of t in
  let out = Array.make (numel t) 0.0 in
  let s = t.data in
  for r = 0 to rows - 1 do
    let base = r * cols in
    let sb = t.off + base in
    let m = ref neg_infinity in
    for j = 0 to cols - 1 do
      if s.(sb + j) > !m then m := s.(sb + j)
    done;
    let z = ref 0.0 in
    for j = 0 to cols - 1 do
      z := !z +. exp (s.(sb + j) -. !m)
    done;
    let lz = !m +. log !z in
    for j = 0 to cols - 1 do
      out.(base + j) <- s.(sb + j) -. lz
    done
  done;
  create t.shape out

let check_labels ~logits ~labels =
  if Shape.rank (shape logits) <> 2 then invalid_arg "cross_entropy: logits must be 2-D";
  if Shape.rank (shape labels) <> 1 then invalid_arg "cross_entropy: labels must be 1-D";
  let b = (shape logits).(0) in
  if (shape labels).(0) <> b then invalid_arg "cross_entropy: batch mismatch";
  b

let cross_entropy ~logits ~labels =
  let b = check_labels ~logits ~labels in
  let v = (shape logits).(1) in
  let lsm = log_softmax logits in
  let acc = ref 0.0 in
  for i = 0 to b - 1 do
    let cls = int_of_float labels.data.(labels.off + i) in
    if cls < 0 || cls >= v then invalid_arg "cross_entropy: label out of range";
    acc := !acc -. lsm.data.((i * v) + cls)
  done;
  !acc /. float_of_int b

let cross_entropy_grad ~logits ~labels =
  let b = check_labels ~logits ~labels in
  let v = (shape logits).(1) in
  let sm = softmax logits in
  let out = to_array sm in
  let inv_b = 1.0 /. float_of_int b in
  for i = 0 to b - 1 do
    let cls = int_of_float labels.data.(labels.off + i) in
    out.((i * v) + cls) <- out.((i * v) + cls) -. 1.0
  done;
  for i = 0 to Array.length out - 1 do
    out.(i) <- out.(i) *. inv_b
  done;
  create (shape logits) out

let dropout_mask ~seed ~p shape =
  if p < 0.0 || p >= 1.0 then invalid_arg "Tensor.dropout_mask: p must be in [0,1)";
  let rng = Rng.create seed in
  let keep = 1.0 /. (1.0 -. p) in
  create shape
    (Array.init (Shape.numel shape) (fun _ -> if Rng.float rng < p then 0.0 else keep))

let embedding ~table ~ids =
  if Shape.rank (shape table) <> 2 then invalid_arg "Tensor.embedding: table must be 2-D";
  if Shape.rank (shape ids) <> 1 then invalid_arg "Tensor.embedding: ids must be 1-D";
  let v = (shape table).(0) and d = (shape table).(1) in
  let b = (shape ids).(0) in
  let out = Array.make (b * d) 0.0 in
  for i = 0 to b - 1 do
    let id = int_of_float ids.data.(ids.off + i) in
    if id < 0 || id >= v then invalid_arg "Tensor.embedding: id out of range";
    Array.blit table.data (table.off + (id * d)) out (i * d) d
  done;
  create [| b; d |] out

let embedding_grad ~table_shape ~ids ~grad_out =
  if Shape.rank table_shape <> 2 then invalid_arg "Tensor.embedding_grad: table must be 2-D";
  let d = table_shape.(1) in
  let b = (shape ids).(0) in
  if not (Shape.equal (shape grad_out) [| b; d |]) then
    invalid_arg "Tensor.embedding_grad: grad_out shape mismatch";
  let out = Array.make (Shape.numel table_shape) 0.0 in
  let g = grad_out.data and go = grad_out.off in
  for i = 0 to b - 1 do
    let id = int_of_float ids.data.(ids.off + i) in
    for j = 0 to d - 1 do
      out.((id * d) + j) <- out.((id * d) + j) +. g.(go + (i * d) + j)
    done
  done;
  create table_shape out

let conv_out_dim ~stride ~pad ~k dim = ((dim + (2 * pad) - k) / stride) + 1

(* {1 Multicore kernel runtime support}

   Heavy kernels below take a [?runtime] and fan their output rows (or the
   flat index range) out over [Parallel.parallel_for], passing a [~work]
   hint (scalar ops per index) so the runtime's fan-out gate can weigh the
   kernel honestly. Every output element is written by exactly one domain,
   in the same per-element accumulation order as the sequential loop, so
   results are bit-identical at every domain count — including under the
   work-stealing schedule, whose chunk boundaries are a pure function of
   the loop size and the handle's configuration. *)

(* GEMM. One C micro-kernel ([gemm_kernel], gemm_stubs.c) runs every
   matmul, computing each output element as its own dot product: a vector
   lane is one output element, accumulating [product + acc] over
   ascending [l] from +0, stored once, so callers skip the zero-fill. The
   kernel body is built twice — 2-lane vectors in 4x4 tiles (SSE2 or
   NEON) and, on x86-64, 4-lane AVX2 vectors in 4x8 tiles — and the build
   is picked once per process, at this module's initialisation
   ([gemm_isa]). The kernel needs one operand with unit stride along the
   vectorised output axis: along j, B as k x n (as it lies when not
   [trans_b]); along i, A as k x m (as it lies under [trans_a]). Under
   [trans_b] alone one operand is packed by a transposing copy (operand
   bits unchanged) — whichever is smaller: A to k x m when m < n, else B
   to k x n.

   Every output element is still the sequential chain. The sequential
   semantics skip a term whose a(i,l) is exactly zero; the kernel adds it
   instead, and the C compiler may commute the add. Neither changes an
   output the kernel stores as a non-NaN. NaN is sticky, so such an output
   never held a NaN: every zero-[a] term added was a +-0 product, and no
   two NaN payloads met. Adding +-0 leaves the accumulator unchanged,
   because it starts at +0 and can never become -0: under round-to-nearest
   a sum is -0 only when both operands are -0. Commuting a non-NaN add is
   exact. So the kernel reports whether it stored any NaN, and only then
   does the chunk recompute each NaN element of its own rows with
   [dot_skip], the per-element reference chain, written [product +. acc]
   — the order a plain triple loop compiles to (its accumulator is a
   memory operand), so where a NaN product meets a different NaN in the
   accumulator the product's payload is kept. Either way sequential and
   parallel variants, and both kernel builds, produce the bits of the
   skipping triple loop. *)

(* Transposing-pack scratch, grown monotonically and reused across
   calls. Packing always happens on the calling domain before the parallel
   region, so the scratch is keyed per domain ([Domain.DLS]): two
   executors driven from different domains each pack into their own
   buffer and cannot race. *)
let pack_scratch : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* [src] holds a row-major [rows x cols] matrix from element [so]; writes
   its transpose ([cols x rows], row-major) into [dst] from element 0.
   Annotated [float array] so the copy moves unboxed doubles instead of
   going through the polymorphic array primitives. *)
let pack_transpose (src : float array) ~so ~rows ~cols (dst : float array) =
  for r = 0 to rows - 1 do
    let base = so + (r * cols) in
    for c = 0 to cols - 1 do
      Array.unsafe_set dst ((c * rows) + r) (Array.unsafe_get src (base + c))
    done
  done

(* [pack_transpose] into this domain's [pack_scratch]. *)
let pack_scratch_transpose src ~so ~rows ~cols =
  let cell = Domain.DLS.get pack_scratch in
  if Array.length !cell < rows * cols then cell := Array.make (rows * cols) 0.0;
  pack_transpose src ~so ~rows ~cols !cell;
  !cell

(* out[i,j] with the sequential skip, where a(i,l) is
   [ad.(ao + i*ai + l*al)], b(l,j) is [bd.(bo + j*bj + l*bl)] and out[i,j]
   is [out.(oo + i*n + j)]: the reference chain. *)
let dot_skip (ad : float array) ~ao (bd : float array) ~bo (out : float array)
    ~oo ~k ~n ~ai ~al ~bj ~bl i j =
  let acc = ref 0.0 in
  for l = 0 to k - 1 do
    let x = Array.unsafe_get ad (ao + (i * ai) + (l * al)) in
    if x <> 0.0 then
      acc := (x *. Array.unsafe_get bd (bo + (j * bj) + (l * bl))) +. !acc
  done;
  Array.unsafe_set out (oo + (i * n) + j) !acc

(* Recomputes by [dot_skip] every NaN element of out rows [lo, hi) (the
   kernel's output, see the GEMM comment above). *)
let fix_nans ad ~ao bd ~bo out ~oo ~k ~n ~ai ~al ~bj ~bl lo hi =
  for i = lo to hi - 1 do
    for j = 0 to n - 1 do
      if Float.is_nan (Array.unsafe_get out (oo + (i * n) + j)) then
        dot_skip ad ~ao bd ~bo out ~oo ~k ~n ~ai ~al ~bj ~bl i j
    done
  done

(* [gemm_kernel p po q qo out oo k pr pl qs r0 r1 c0 c1 sr sc] stores
   x(r,c) = sum_l p.(po + r*pr + l*pl) * q.(qo + l*qs + c) at
   out.(oo + r*sr + c*sc) for r in [r0, r1), c in [c0, c1), and returns
   whether any stored x(r,c) is a NaN; see kernel_stubs.c. *)
external gemm_kernel :
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool = "echo_gemm_byte" "echo_gemm"
[@@noalloc]

(* {1 Elementwise, reduction and copy kernels}

   Each elementwise op, fused-chain step, the row sums of [reduce_sum] and
   the bias add run one C loop (elementwise_kernel.h, built twice like the
   GEMM), called once per [Parallel.parallel_for] chunk. Every lane
   computes the OCaml scalar expression written beside its op in the
   header, with libm's exp, tanh, log and pow for the transcendental steps;
   where both operands of an add, subtract, multiply or divide are NaN the
   kernel keeps the first operand's payload, quieted, as the OCaml
   expression does. So results equal the scalar loops bit for bit, and [dst]
   may alias an operand. *)

(* These kernels take tensors and read each view's data and offset
   themselves; indices are relative to the views. *)

(* [ew_map step x y d lo hi]: d.(i) <- step x.(i) for a unary step, or
   x.(i) step y.(i) for a binary one (its operand index is ignored), on
   [lo, hi). *)
external ew_map :
  fused_step ->
  t ->
  t ->
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "echo_ew_map_byte" "echo_ew_map"
[@@noalloc]

(* [ew_chain steps operands d lo hi]: the fused chain over [lo, hi). *)
external ew_chain :
  fused_step array ->
  t array ->
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "echo_ew_chain_byte" "echo_ew_chain"
[@@noalloc]

(* [ew_add_bias m b d cols lo hi]: d.(i*cols + j) <- m.(i*cols + j) +. b.(j)
   for rows i in [lo, hi). *)
external ew_add_bias :
  t ->
  t ->
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "echo_ew_add_bias_byte" "echo_ew_add_bias"
[@@noalloc]

(* [reduce_sum_kernel s out d inner lo hi]: out.(o*inner + k) <- the sum
   over ascending a of s.((o*d + a)*inner + k), from +0, for o in
   [lo, hi). *)
external reduce_sum_kernel :
  t ->
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "echo_reduce_sum_byte" "echo_reduce_sum"
[@@noalloc]

(* [copy_blocks src soff so sa dst doff dso dsa outer n width]: for o in
   [0, outer) and a in [0, n), copies [width] elements from
   src.(soff + o*so + a*sa) to dst.(doff + o*dso + a*dsa). *)
external copy_blocks :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "echo_copy_blocks_byte" "echo_copy_blocks"
[@@noalloc]

(* [kernels_select portable] points every SIMD kernel at the best build
   the CPU supports, or at the portable build when [portable]. *)
external kernels_select : bool -> unit = "echo_kernels_select"
external gemm_isa : unit -> string = "echo_kernels_isa"

(* Runs before any domain can call a kernel. *)
let () = kernels_select false

module For_testing = struct
  let with_portable_kernels f =
    kernels_select true;
    Fun.protect ~finally:(fun () -> kernels_select false) f
end

(* {1 Destination-passing kernels} *)

module Into = struct
  let check name dst expected =
    if not (Shape.equal dst.shape expected) then
      invalid_arg
        (Printf.sprintf "Tensor.Into.%s: dst has shape %s, result needs %s" name
           (Shape.to_string dst.shape) (Shape.to_string expected))

  (* [check] against [src] with dim [axis] replaced by [n], compared in
     place: the expected shape, for the diagnostic, is built only on a
     mismatch, so the per-call copy kernels allocate nothing. *)
  let check_axis name dst src ~axis ~n =
    let r = Array.length src in
    let ok = ref (Array.length dst.shape = r) in
    for i = 0 to r - 1 do
      if !ok && dst.shape.(i) <> if i = axis then n else src.(i) then
        ok := false
    done;
    if not !ok then
      check name dst (Array.mapi (fun i d -> if i = axis then n else d) src)

  let fill ~dst v = Array.fill dst.data dst.off (numel dst) v

  let blit ~src ~dst =
    let n = numel src in
    if n <> numel dst then
      invalid_arg
        (Printf.sprintf "Tensor.Into.blit: %d elements into %d" n (numel dst));
    Array.blit src.data src.off dst.data dst.off n

  (* [dst] may alias [src]: each cell is read before it is written (by the
     domain owning that cell's chunk). *)
  let unary ?(runtime = Parallel.sequential) name step src ~dst =
    check name dst src.shape;
    Parallel.parallel_for runtime ~work:(fused_step_work step)
      ~n:(numel src) (fun lo hi -> ew_map step src src dst lo hi)

  let neg ?runtime src ~dst = unary ?runtime "neg" F_neg src ~dst
  let scale ?runtime k src ~dst = unary ?runtime "scale" (F_scale k) src ~dst

  let add_scalar ?runtime k src ~dst =
    unary ?runtime "add_scalar" (F_add_scalar k) src ~dst

  let pow_const ?runtime p src ~dst =
    unary ?runtime "pow_const" (F_pow_const p) src ~dst

  let sigmoid ?runtime src ~dst = unary ?runtime "sigmoid" F_sigmoid src ~dst
  let tanh_ ?runtime src ~dst = unary ?runtime "tanh" F_tanh src ~dst
  let relu ?runtime src ~dst = unary ?runtime "relu" F_relu src ~dst
  let exp_ ?runtime src ~dst = unary ?runtime "exp" F_exp src ~dst
  let log_ ?runtime src ~dst = unary ?runtime "log" F_log src ~dst
  let sqrt_ ?runtime src ~dst = unary ?runtime "sqrt" F_sqrt src ~dst
  let sq ?runtime src ~dst = unary ?runtime "sq" F_sq src ~dst
  let recip ?runtime src ~dst = unary ?runtime "recip" F_recip src ~dst
  let sign ?runtime src ~dst = unary ?runtime "sign" F_sign src ~dst

  (* [dst] may alias either operand. *)
  let binary ?(runtime = Parallel.sequential) name step a b ~dst =
    if not (Shape.equal a.shape b.shape) then
      invalid_arg
        (Printf.sprintf "Tensor.Into.%s: shape mismatch %s vs %s" name
           (Shape.to_string a.shape) (Shape.to_string b.shape));
    check name dst a.shape;
    Parallel.parallel_for runtime ~n:(numel a) (fun lo hi ->
        ew_map step a b dst lo hi)

  let add ?runtime a b ~dst = binary ?runtime "add" (F_add 1) a b ~dst
  let sub ?runtime a b ~dst = binary ?runtime "sub" (F_sub 1) a b ~dst
  let mul ?runtime a b ~dst = binary ?runtime "mul" (F_mul 1) a b ~dst
  let div ?runtime a b ~dst = binary ?runtime "div" (F_div 1) a b ~dst

  (* The scalar multiplier is read before any write, so [dst] may alias
     either operand — [F_scale] captures it up front, exactly like the
     fused [F_scale_by] opcode reads the same single cell. *)
  let scale_by ?runtime x s ~dst =
    unary ?runtime "scale_by" (F_scale (get1 s 0)) x ~dst

  (* Every output element is computed as the sequential triple loop does —
     ascending l from +0, skipping a_il = 0 (see the GEMM comment above for
     why the kernel may add those terms) — so results are bit-identical
     across kernel builds and every domain count. [dst] must not alias an
     operand. Output rows are partitioned across the runtime's domains;
     each chunk writes only its own rows. *)
  let matmul ?(runtime = Parallel.sequential) ?(trans_a = false)
      ?(trans_b = false) a b ~dst =
    if Shape.rank a.shape <> 2 || Shape.rank b.shape <> 2 then
      invalid_arg "Tensor.Into.matmul: operands must be 2-D";
    let am = a.shape.(0) and an = a.shape.(1) in
    let bm = b.shape.(0) and bn = b.shape.(1) in
    let m, k = if trans_a then (an, am) else (am, an) in
    let k', n = if trans_b then (bn, bm) else (bm, bn) in
    if k <> k' then
      invalid_arg
        (Printf.sprintf "Tensor.Into.matmul: inner dims %d vs %d" k k');
    check "matmul" dst [| m; n |];
    let out = dst.data and oo = dst.off in
    let ad = a.data and ao = a.off and bd = b.data and bo = b.off in
    let work = 2 * k * n in
    (* Packs happen on the calling domain before the fan-out; a packed
       operand starts at element 0 of the scratch. The kernel overwrites
       every element of its rows, so no zero-fill. *)
    if trans_b && (trans_a || m < n) then begin
      (* Along i: kernel rows are j over B (n x k), columns i over A as
         k x m; the chunk's rows of [out] are kernel columns. *)
      let at, ato =
        if trans_a then (ad, ao)
        else (pack_scratch_transpose ad ~so:ao ~rows:m ~cols:k, 0)
      in
      Parallel.parallel_for runtime ~work ~n:m (fun lo hi ->
          if gemm_kernel bd bo at ato out oo k k 1 m 0 n lo hi 1 n then
            fix_nans at ~ao:ato bd ~bo out ~oo ~k ~n ~ai:1 ~al:m ~bj:k ~bl:1
              lo hi)
    end
    else begin
      (* Along j: kernel rows are i over A, columns j over B as k x n. *)
      let ai, al = if trans_a then (1, m) else (k, 1) in
      let bkn, bkno =
        if trans_b then (pack_scratch_transpose bd ~so:bo ~rows:n ~cols:k, 0)
        else (bd, bo)
      in
      Parallel.parallel_for runtime ~work ~n:m (fun lo hi ->
          if gemm_kernel ad ao bkn bkno out oo k ai al n lo hi 0 n n 1 then
            fix_nans ad ~ao bkn ~bo:bkno out ~oo ~k ~n ~ai ~al ~bj:1 ~bl:n lo
              hi)
    end

  (* [dst] may alias [m] (cell read before write); aliasing [b] only arises
     when rows = 1, where b.(j) is read before dst.(j) is written. *)
  let add_bias ?(runtime = Parallel.sequential) m b ~dst =
    if Shape.rank m.shape <> 2 || Shape.rank b.shape <> 1 then
      invalid_arg "Tensor.Into.add_bias: expects 2-D matrix and 1-D bias";
    let rows = m.shape.(0) and cols = m.shape.(1) in
    if b.shape.(0) <> cols then
      invalid_arg "Tensor.Into.add_bias: bias length mismatch";
    check "add_bias" dst m.shape;
    Parallel.parallel_for runtime ~work:cols ~n:rows (fun lo hi ->
        ew_add_bias m b dst cols lo hi)

  let slice ~axis ~lo ~hi src ~dst =
    let s = src.shape in
    (* [Shape.slice_result] raises the range diagnostic. *)
    if axis < 0 || axis >= Array.length s || lo < 0 || lo >= hi || hi > s.(axis)
    then check "slice" dst (Shape.slice_result ~axis ~lo ~hi s);
    check_axis "slice" dst s ~axis ~n:(hi - lo);
    let d = src.shape.(axis) in
    let outer = outer_blocks src.shape axis
    and inner = inner_blocks src.shape axis in
    let width = (hi - lo) * inner in
    copy_blocks src.data
      (src.off + (lo * inner))
      (d * inner) 0 dst.data dst.off width 0 outer 1 width

  let pad_slice ~axis ~lo ~full src ~dst =
    if axis < 0 || axis >= Shape.rank src.shape then
      invalid_arg "Tensor.Into.pad_slice: bad axis";
    let d = src.shape.(axis) in
    if lo < 0 || lo + d > full then
      invalid_arg "Tensor.Into.pad_slice: slice does not fit";
    check_axis "pad_slice" dst src.shape ~axis ~n:full;
    let outer = outer_blocks src.shape axis
    and inner = inner_blocks src.shape axis in
    Array.fill dst.data dst.off (numel dst) 0.0;
    copy_blocks src.data src.off (d * inner) 0 dst.data
      (dst.off + (lo * inner))
      (full * inner) 0 outer 1 (d * inner)

  let concat ~axis ts ~dst =
    match ts with
    | [] -> invalid_arg "Tensor.Into.concat: empty list"
    | first :: rest ->
      let out_shape =
        List.fold_left
          (fun acc t -> Shape.concat_result ~axis acc t.shape)
          first.shape rest
      in
      check "concat" dst out_shape;
      let outer = outer_blocks first.shape axis
      and inner = inner_blocks first.shape axis in
      let total = out_shape.(axis) in
      let offset = ref 0 in
      List.iter
        (fun t ->
          let d = t.shape.(axis) in
          copy_blocks t.data t.off (d * inner) 0 dst.data
            (dst.off + (!offset * inner))
            (total * inner) 0 outer 1 (d * inner);
          offset := !offset + d)
        ts

  (* Partitioned over output rows: each domain gathers one stripe of
     columns of [src], so every dst cell has exactly one writer. *)
  let transpose2d ?(runtime = Parallel.sequential) src ~dst =
    if Shape.rank src.shape <> 2 then
      invalid_arg "Tensor.Into.transpose2d: expects 2-D";
    let m = src.shape.(0) and n = src.shape.(1) in
    check "transpose2d" dst [| n; m |];
    let s = src.data and so = src.off and d = dst.data and doff = dst.off in
    Parallel.parallel_for runtime ~work:m ~n (fun lo hi ->
        for a = lo to hi - 1 do
          let row = doff + (a * m) in
          for b = 0 to m - 1 do
            Array.unsafe_set d (row + b)
              (Array.unsafe_get s (so + (b * n) + a))
          done
        done)

  (* Partitioned over the [outer] blocks: a chunk owns dst cells
     [lo*inner, hi*inner) outright, each accumulated in a register from +0
     over ascending a. *)
  let reduce_sum ?(runtime = Parallel.sequential) ~axis ~keepdims src ~dst =
    if axis < 0 || axis >= Shape.rank src.shape then
      invalid_arg "Tensor.Into.reduce_sum: bad axis";
    check "reduce_sum" dst (reduce_shape ~axis ~keepdims src.shape);
    let d = src.shape.(axis) in
    let outer = outer_blocks src.shape axis
    and inner = inner_blocks src.shape axis in
    Parallel.parallel_for runtime ~work:(d * inner) ~n:outer (fun lo hi ->
        reduce_sum_kernel src dst d inner lo hi)

  let reduce_mean ?runtime ~axis ~keepdims src ~dst =
    reduce_sum ?runtime ~axis ~keepdims src ~dst;
    let k = 1.0 /. float_of_int src.shape.(axis) in
    ew_map (F_scale k) dst dst dst 0 (numel dst)

  let broadcast_axis ~axis ~n src ~dst =
    if axis < 0 || axis >= Shape.rank src.shape then
      invalid_arg "Tensor.Into.broadcast_axis: bad axis";
    if src.shape.(axis) <> 1 then
      invalid_arg "Tensor.Into.broadcast_axis: axis dim must be 1";
    check_axis "broadcast_axis" dst src.shape ~axis ~n;
    let outer = outer_blocks src.shape axis
    and inner = inner_blocks src.shape axis in
    copy_blocks src.data src.off inner 0 dst.data dst.off (n * inner) inner
      outer n inner

  (* Softmax family: [dst] may alias the input — within each row the maximum
     and the normaliser are read from the input before any cell of that row
     is overwritten, and each overwrite reads its own cell first. *)
  let softmax ?(runtime = Parallel.sequential) src ~dst =
    check "softmax" dst src.shape;
    let rows, cols = rows_of src in
    let s = src.data and out = dst.data in
    Parallel.parallel_for runtime ~work:(10 * cols) ~n:rows (fun lo hi ->
        for r = lo to hi - 1 do
          let sb = src.off + (r * cols) and ob = dst.off + (r * cols) in
          let m = ref neg_infinity in
          for j = 0 to cols - 1 do
            if s.(sb + j) > !m then m := s.(sb + j)
          done;
          let z = ref 0.0 in
          for j = 0 to cols - 1 do
            let e = exp (s.(sb + j) -. !m) in
            out.(ob + j) <- e;
            z := !z +. e
          done;
          for j = 0 to cols - 1 do
            out.(ob + j) <- out.(ob + j) /. !z
          done
        done)

  let log_softmax ?(runtime = Parallel.sequential) src ~dst =
    check "log_softmax" dst src.shape;
    let rows, cols = rows_of src in
    let s = src.data and out = dst.data in
    Parallel.parallel_for runtime ~work:(10 * cols) ~n:rows (fun lo hi ->
        for r = lo to hi - 1 do
          let sb = src.off + (r * cols) and ob = dst.off + (r * cols) in
          let m = ref neg_infinity in
          for j = 0 to cols - 1 do
            if s.(sb + j) > !m then m := s.(sb + j)
          done;
          let z = ref 0.0 in
          for j = 0 to cols - 1 do
            z := !z +. exp (s.(sb + j) -. !m)
          done;
          let lz = !m +. log !z in
          for j = 0 to cols - 1 do
            out.(ob + j) <- s.(sb + j) -. lz
          done
        done)

  (* Per row: log-normaliser from the logits, then acc -= logits[cls] - lz.
     Row order and operand values match [cross_entropy] exactly. *)
  let cross_entropy ~logits ~labels ~dst =
    if numel dst <> 1 then
      invalid_arg "Tensor.Into.cross_entropy: dst must be scalar";
    let b = check_labels ~logits ~labels in
    let v = (shape logits).(1) in
    let s = logits.data in
    let acc = ref 0.0 in
    for i = 0 to b - 1 do
      let base = logits.off + (i * v) in
      let m = ref neg_infinity in
      for j = 0 to v - 1 do
        if s.(base + j) > !m then m := s.(base + j)
      done;
      let z = ref 0.0 in
      for j = 0 to v - 1 do
        z := !z +. exp (s.(base + j) -. !m)
      done;
      let lz = !m +. log !z in
      let cls = int_of_float labels.data.(labels.off + i) in
      if cls < 0 || cls >= v then
        invalid_arg "cross_entropy: label out of range";
      acc := !acc -. (s.(base + cls) -. lz)
    done;
    dst.data.(dst.off) <- !acc /. float_of_int b

  (* Row-interleaved so [dst] may alias [logits]; each row reads its label
     index before the row is overwritten, so for the degenerate vocab-size-1
     case [dst] may even alias [labels]. *)
  (* The trailing [()] lets the [?runtime] default be erased: these three
     kernels have no positional operand to anchor it. *)
  let cross_entropy_grad ?(runtime = Parallel.sequential) ~logits ~labels ~dst
      () =
    let b = check_labels ~logits ~labels in
    let v = (shape logits).(1) in
    check "cross_entropy_grad" dst logits.shape;
    let s = logits.data and out = dst.data in
    let inv_b = 1.0 /. float_of_int b in
    Parallel.parallel_for runtime ~work:(10 * v) ~n:b (fun lo hi ->
        for i = lo to hi - 1 do
          let sb = logits.off + (i * v) and ob = dst.off + (i * v) in
          let cls = int_of_float labels.data.(labels.off + i) in
          let m = ref neg_infinity in
          for j = 0 to v - 1 do
            if s.(sb + j) > !m then m := s.(sb + j)
          done;
          let z = ref 0.0 in
          for j = 0 to v - 1 do
            let e = exp (s.(sb + j) -. !m) in
            out.(ob + j) <- e;
            z := !z +. e
          done;
          for j = 0 to v - 1 do
            out.(ob + j) <- out.(ob + j) /. !z
          done;
          out.(ob + cls) <- out.(ob + cls) -. 1.0;
          for j = 0 to v - 1 do
            out.(ob + j) <- out.(ob + j) *. inv_b
          done
        done)

  let embedding ?(runtime = Parallel.sequential) ~table ~ids ~dst () =
    if Shape.rank (shape table) <> 2 then
      invalid_arg "Tensor.Into.embedding: table must be 2-D";
    if Shape.rank (shape ids) <> 1 then
      invalid_arg "Tensor.Into.embedding: ids must be 1-D";
    let v = (shape table).(0) and d = (shape table).(1) in
    let b = (shape ids).(0) in
    check "embedding" dst [| b; d |];
    Parallel.parallel_for runtime ~work:d ~n:b (fun lo hi ->
        for i = lo to hi - 1 do
          let id = int_of_float ids.data.(ids.off + i) in
          if id < 0 || id >= v then
            invalid_arg "Tensor.embedding: id out of range";
          Array.blit table.data
            (table.off + (id * d))
            dst.data
            (dst.off + (i * d))
            d
        done)

  (* Scatter-add with duplicate ids, so the partition is over {e destination
     table rows}: every chunk scans the full id list and accumulates only
     the rows it owns, preserving the i-ascending addition order per row.
     Cheap because the scan is O(b) per chunk while the scatters are
     O(b*d / chunks). *)
  let embedding_grad ?(runtime = Parallel.sequential) ~ids ~grad_out ~dst () =
    if Shape.rank dst.shape <> 2 then
      invalid_arg "Tensor.Into.embedding_grad: dst must be 2-D";
    let v = dst.shape.(0) and d = dst.shape.(1) in
    let b = (shape ids).(0) in
    if not (Shape.equal (shape grad_out) [| b; d |]) then
      invalid_arg "Tensor.Into.embedding_grad: grad_out shape mismatch";
    let out = dst.data and oo = dst.off in
    let g = grad_out.data and go = grad_out.off in
    (* Per table row: the O(b) id scan plus this row's share of the O(b*d)
       scatter adds. *)
    Parallel.parallel_for runtime
      ~work:(b + (b * d / max 1 v))
      ~n:v (fun lo hi ->
        Array.fill out (oo + (lo * d)) ((hi - lo) * d) 0.0;
        for i = 0 to b - 1 do
          let id = int_of_float ids.data.(ids.off + i) in
          if id < 0 || id >= v then
            invalid_arg "Tensor.Into.embedding_grad: id out of range";
          if id >= lo && id < hi then
            for j = 0 to d - 1 do
              let c = oo + (id * d) + j in
              out.(c) <- out.(c) +. g.(go + (i * d) + j)
            done
        done)

  (* One C call per chunk (see [ew_chain]): in L1-sized blocks, each step
     is one pass of the same kernel op the unfused instruction runs, so
     every element sees the chain's operations in order. [F_scale_by] reads
     its multiplier, element 0 of its operand, like [scale_by]. [dst] may
     alias any operand: a block of every operand is read before that block
     of [dst] is written, and parallel chunks are disjoint. The partition is
     the same flat-index chunking as [unary]/[binary] — with the work hint
     summing the per-step weights, so a fused chain clears the runtime's
     fan-out gate exactly when the separate passes it replaces would have in
     aggregate — so results are bit-identical at every domain count and to
     running the chain unfused. *)
  let fused ?(runtime = Parallel.sequential) steps operands ~dst =
    if Array.length operands = 0 then
      invalid_arg "Tensor.Into.fused: no operands";
    check "fused" dst operands.(0).shape;
    let work = ref 0 in
    for st = 0 to Array.length steps - 1 do
      let step = steps.(st) in
      work := !work + fused_step_work step;
      match fused_step_operand step with
      | None -> ()
      | Some j ->
        if j < 0 || j >= Array.length operands then
          invalid_arg "Tensor.Into.fused: operand index out of range";
        (match step with
        | F_scale_by _ -> () (* a [1]-shaped multiplier *)
        | _ -> check "fused" dst operands.(j).shape)
    done;
    Parallel.parallel_for runtime ~work:!work ~n:(numel dst) (fun lo hi ->
        ew_chain steps operands dst lo hi)

  (* {2 Convolution (naive direct)}

     Flat-index loops over the operands' arrays, in the loop nest and
     accumulation order of the textbook multi-index formulation. Sequential;
     [dst] must not alias an operand. The forward kernel writes each [dst]
     element once; both gradients zero-fill [dst] and scatter-add, skipping
     zero [grad_out] elements. *)

  let conv2d ~stride ~pad ~input ~kernel ~dst =
    let b = input.shape.(0) and cin = input.shape.(1) in
    let h = input.shape.(2) and w = input.shape.(3) in
    let cout = kernel.shape.(0) and kh = kernel.shape.(2) in
    let kw = kernel.shape.(3) in
    let oh = conv_out_dim ~stride ~pad ~k:kh h in
    let ow = conv_out_dim ~stride ~pad ~k:kw w in
    check "conv2d" dst [| b; cout; oh; ow |];
    let x = input.data and xo = input.off and k = kernel.data in
    let ko = kernel.off and d = dst.data and doff = dst.off in
    for n = 0 to b - 1 do
      for co = 0 to cout - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let acc = ref 0.0 in
            for ci = 0 to cin - 1 do
              let xc = ((n * cin) + ci) * h and kc = ((co * cin) + ci) * kh in
              for ky = 0 to kh - 1 do
                let iy = (oy * stride) + ky - pad in
                if iy >= 0 && iy < h then begin
                  let xr = xo + ((xc + iy) * w) and kr = ko + ((kc + ky) * kw) in
                  for kx = 0 to kw - 1 do
                    let ix = (ox * stride) + kx - pad in
                    if ix >= 0 && ix < w then
                      acc := !acc +. (x.(xr + ix) *. k.(kr + kx))
                  done
                end
              done
            done;
            d.(doff + ((((((n * cout) + co) * oh) + oy) * ow) + ox)) <- !acc
          done
        done
      done
    done

  (* The input shape is [dst]'s. *)
  let conv2d_grad_input ~stride ~pad ~kernel ~grad_out ~dst =
    let b = dst.shape.(0) and cin = dst.shape.(1) in
    let h = dst.shape.(2) and w = dst.shape.(3) in
    let cout = kernel.shape.(0) and kh = kernel.shape.(2) in
    let kw = kernel.shape.(3) in
    let oh = grad_out.shape.(2) and ow = grad_out.shape.(3) in
    let k = kernel.data and ko = kernel.off in
    let g = grad_out.data and go = grad_out.off in
    let d = dst.data and doff = dst.off in
    Array.fill d doff (numel dst) 0.0;
    for n = 0 to b - 1 do
      for co = 0 to cout - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let gv = g.(go + ((((((n * cout) + co) * oh) + oy) * ow) + ox)) in
            if gv <> 0.0 then
              for ci = 0 to cin - 1 do
                let dc = ((n * cin) + ci) * h and kc = ((co * cin) + ci) * kh in
                for ky = 0 to kh - 1 do
                  let iy = (oy * stride) + ky - pad in
                  if iy >= 0 && iy < h then begin
                    let dr = doff + ((dc + iy) * w)
                    and kr = ko + ((kc + ky) * kw) in
                    for kx = 0 to kw - 1 do
                      let ix = (ox * stride) + kx - pad in
                      if ix >= 0 && ix < w then
                        d.(dr + ix) <- d.(dr + ix) +. (gv *. k.(kr + kx))
                    done
                  end
                done
              done
          done
        done
      done
    done

  (* The kernel shape is [dst]'s. *)
  let conv2d_grad_kernel ~stride ~pad ~input ~grad_out ~dst =
    let b = input.shape.(0) and cin = input.shape.(1) in
    let h = input.shape.(2) and w = input.shape.(3) in
    let cout = dst.shape.(0) and kh = dst.shape.(2) and kw = dst.shape.(3) in
    let oh = grad_out.shape.(2) and ow = grad_out.shape.(3) in
    let x = input.data and xo = input.off in
    let g = grad_out.data and go = grad_out.off in
    let d = dst.data and doff = dst.off in
    Array.fill d doff (numel dst) 0.0;
    for n = 0 to b - 1 do
      for co = 0 to cout - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            let gv = g.(go + ((((((n * cout) + co) * oh) + oy) * ow) + ox)) in
            if gv <> 0.0 then
              for ci = 0 to cin - 1 do
                let xc = ((n * cin) + ci) * h and dc = ((co * cin) + ci) * kh in
                for ky = 0 to kh - 1 do
                  let iy = (oy * stride) + ky - pad in
                  if iy >= 0 && iy < h then begin
                    let xr = xo + ((xc + iy) * w)
                    and dr = doff + ((dc + ky) * kw) in
                    for kx = 0 to kw - 1 do
                      let ix = (ox * stride) + kx - pad in
                      if ix >= 0 && ix < w then
                        d.(dr + kx) <- d.(dr + kx) +. (gv *. x.(xr + ix))
                    done
                  end
                done
              done
          done
        done
      done
    done

  (* {2 Optimizer updates}

     One pass per update rule. Each element goes through exactly the
     operations, operands and order of the rule's tensor formulation
     ([scale] is [c *. x], [add_scalar] is [c +. x], [sq] is [x *. x]), so
     the result is bit-identical to composing the allocating ops. Slots
     update in place and [dst] may alias [param]: element [i] of every
     operand is read before element [i] of anything is written. *)

  let check_update name param others =
    List.iter (fun t -> check name t param.shape) others

  (* p - lr * g *)
  let sgd ~lr ~param ~grad ~dst =
    check_update "sgd" param [ grad; dst ];
    let p = param.data and po = param.off and g = grad.data and go = grad.off in
    let d = dst.data and doff = dst.off in
    for i = 0 to numel param - 1 do
      Array.unsafe_set d (doff + i)
        (Array.unsafe_get p (po + i) -. (lr *. Array.unsafe_get g (go + i)))
    done

  (* v' = momentum * v + g; p - lr * v' *)
  let momentum ~lr ~momentum ~param ~grad ~velocity ~dst =
    check_update "momentum" param [ grad; velocity; dst ];
    let p = param.data and po = param.off and g = grad.data and go = grad.off in
    let v = velocity.data and vo = velocity.off in
    let d = dst.data and doff = dst.off in
    for i = 0 to numel param - 1 do
      let v' =
        (momentum *. Array.unsafe_get v (vo + i)) +. Array.unsafe_get g (go + i)
      in
      Array.unsafe_set v (vo + i) v';
      Array.unsafe_set d (doff + i) (Array.unsafe_get p (po + i) -. (lr *. v'))
    done

  (* m' = b1 * m + (1 - b1) * g; v' = b2 * v + (1 - b2) * g^2;
     p - lr * (c1 * m') / (eps + sqrt (c2 * v')) with the bias corrections
     c = 1 / (1 - b^step). *)
  let adam ~lr ~beta1 ~beta2 ~eps ~step ~param ~grad ~m ~v ~dst =
    check_update "adam" param [ grad; m; v; dst ];
    let steps = float_of_int step in
    let c1 = 1.0 /. (1.0 -. Float.pow beta1 steps) in
    let c2 = 1.0 /. (1.0 -. Float.pow beta2 steps) in
    let omb1 = 1.0 -. beta1 and omb2 = 1.0 -. beta2 in
    let p = param.data and po = param.off and g = grad.data and go = grad.off in
    let md = m.data and mo = m.off and vd = v.data and vo = v.off in
    let d = dst.data and doff = dst.off in
    for i = 0 to numel param - 1 do
      let gi = Array.unsafe_get g (go + i) in
      let m' = (beta1 *. Array.unsafe_get md (mo + i)) +. (omb1 *. gi) in
      let v' =
        (beta2 *. Array.unsafe_get vd (vo + i)) +. (omb2 *. (gi *. gi))
      in
      Array.unsafe_set md (mo + i) m';
      Array.unsafe_set vd (vo + i) v';
      Array.unsafe_set d (doff + i)
        (Array.unsafe_get p (po + i)
        -. ((lr *. (c1 *. m')) /. (eps +. sqrt (c2 *. v'))))
    done
end

(* {1 Allocating wrappers over [Into]} *)

let matmul ?(trans_a = false) ?(trans_b = false) a b =
  if Shape.rank a.shape <> 2 || Shape.rank b.shape <> 2 then
    invalid_arg "Tensor.matmul: operands must be 2-D";
  let am = a.shape.(0) and an = a.shape.(1) in
  let bm = b.shape.(0) and bn = b.shape.(1) in
  let m, k = if trans_a then (an, am) else (am, an) in
  let k', n = if trans_b then (bn, bm) else (bm, bn) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Tensor.matmul: inner dims %d vs %d (%s%s x %s%s)" k k'
         (Shape.to_string a.shape)
         (if trans_a then "^T" else "")
         (Shape.to_string b.shape)
         (if trans_b then "^T" else ""));
  let dst = zeros [| m; n |] in
  Into.matmul ~trans_a ~trans_b a b ~dst;
  dst

let conv2d ~stride ~pad ~input ~kernel =
  if Shape.rank input.shape <> 4 || Shape.rank kernel.shape <> 4 then
    invalid_arg "Tensor.conv2d: expects 4-D input and kernel";
  if input.shape.(1) <> kernel.shape.(1) then
    invalid_arg "Tensor.conv2d: channel mismatch";
  let oh = conv_out_dim ~stride ~pad ~k:kernel.shape.(2) input.shape.(2) in
  let ow = conv_out_dim ~stride ~pad ~k:kernel.shape.(3) input.shape.(3) in
  if oh < 1 || ow < 1 then invalid_arg "Tensor.conv2d: output collapses to zero";
  let dst = zeros [| input.shape.(0); kernel.shape.(0); oh; ow |] in
  Into.conv2d ~stride ~pad ~input ~kernel ~dst;
  dst

let conv2d_grad_input ~stride ~pad ~input_shape ~kernel ~grad_out =
  let dst = zeros input_shape in
  Into.conv2d_grad_input ~stride ~pad ~kernel ~grad_out ~dst;
  dst

let conv2d_grad_kernel ~stride ~pad ~input ~kernel_shape ~grad_out =
  let dst = zeros kernel_shape in
  Into.conv2d_grad_kernel ~stride ~pad ~input ~grad_out ~dst;
  dst

let transpose2d t =
  if Shape.rank t.shape <> 2 then invalid_arg "Tensor.transpose2d: expects 2-D";
  let dst = zeros [| t.shape.(1); t.shape.(0) |] in
  Into.transpose2d t ~dst;
  dst

(* Elementwise: allocate and delegate, one loop body per op. *)

let ew1 kernel src =
  let dst = zeros src.shape in
  kernel src ~dst;
  dst

let ew2 kernel a b =
  let dst = zeros a.shape in
  kernel a b ~dst;
  dst

let add a b = ew2 (Into.add ?runtime:None) a b
let sub a b = ew2 (Into.sub ?runtime:None) a b
let mul a b = ew2 (Into.mul ?runtime:None) a b
let div a b = ew2 (Into.div ?runtime:None) a b
let neg t = ew1 (Into.neg ?runtime:None) t
let scale k t = ew1 (Into.scale ?runtime:None k) t
let add_scalar k t = ew1 (Into.add_scalar ?runtime:None k) t
let sigmoid t = ew1 (Into.sigmoid ?runtime:None) t
let tanh_ t = ew1 (Into.tanh_ ?runtime:None) t
let relu t = ew1 (Into.relu ?runtime:None) t
let exp_ t = ew1 (Into.exp_ ?runtime:None) t
let log_ t = ew1 (Into.log_ ?runtime:None) t
let sqrt_ t = ew1 (Into.sqrt_ ?runtime:None) t
let sq t = ew1 (Into.sq ?runtime:None) t
let pow_const p t = ew1 (Into.pow_const ?runtime:None p) t
let recip t = ew1 (Into.recip ?runtime:None) t
let sign t = ew1 (Into.sign ?runtime:None) t

let add_bias m b =
  let dst = zeros m.shape in
  Into.add_bias m b ~dst;
  dst

(* Shape and reduction kernels: allocate the result and delegate. *)

let slice ~axis ~lo ~hi t =
  let dst = zeros (Shape.slice_result ~axis ~lo ~hi t.shape) in
  Into.slice ~axis ~lo ~hi t ~dst;
  dst

let concat ~axis ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat: empty list"
  | first :: rest ->
    let dst =
      zeros
        (List.fold_left
           (fun acc t -> Shape.concat_result ~axis acc t.shape)
           first.shape rest)
    in
    Into.concat ~axis ts ~dst;
    dst

let with_axis_dim name ~axis n shape =
  if axis < 0 || axis >= Shape.rank shape then
    invalid_arg (Printf.sprintf "Tensor.%s: bad axis" name);
  Array.mapi (fun i d -> if i = axis then n else d) shape

let pad_slice ~axis ~lo ~full t =
  let dst = zeros (with_axis_dim "pad_slice" ~axis full t.shape) in
  Into.pad_slice ~axis ~lo ~full t ~dst;
  dst

let broadcast_axis ~axis ~n t =
  let dst = zeros (with_axis_dim "broadcast_axis" ~axis n t.shape) in
  Into.broadcast_axis ~axis ~n t ~dst;
  dst

let reduce_sum ~axis ~keepdims t =
  let dst = zeros (reduce_shape ~axis ~keepdims t.shape) in
  Into.reduce_sum ~axis ~keepdims t ~dst;
  dst

let reduce_mean ~axis ~keepdims t =
  let dst = zeros (reduce_shape ~axis ~keepdims t.shape) in
  Into.reduce_mean ~axis ~keepdims t ~dst;
  dst

(* {1 Comparison and printing} *)

(* Float [=] on each element of the two views: [-0.] equals [+0.] and a
   NaN equals nothing. *)
let equal a b =
  Shape.equal a.shape b.shape
  &&
  let n = numel a in
  let rec go i = i >= n || (a.data.(a.off + i) = b.data.(b.off + i) && go (i + 1)) in
  go 0

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then infinity
  else begin
    let m = ref 0.0 in
    for i = 0 to numel a - 1 do
      let d = Float.abs (a.data.(a.off + i) -. b.data.(b.off + i)) in
      if d > !m then m := d
    done;
    !m
  end

let approx_equal ?(tol = 1e-9) a b = max_abs_diff a b <= tol

let pp fmt t =
  Format.fprintf fmt "%s{" (Shape.to_string t.shape);
  let n = min (numel t) 16 in
  for i = 0 to n - 1 do
    if i > 0 then Format.pp_print_string fmt ", ";
    Format.fprintf fmt "%g" t.data.(t.off + i)
  done;
  if numel t > n then Format.pp_print_string fmt ", ...";
  Format.pp_print_string fmt "}"

let to_string t = Format.asprintf "%a" pp t
