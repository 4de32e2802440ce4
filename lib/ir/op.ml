open Echo_tensor

type t =
  | Placeholder
  | Variable
  | Zeros
  | ConstFill of float
  | DropoutMask of { p : float; seed : int }
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
  | Add
  | Sub
  | Mul
  | Div
  | Matmul of { trans_a : bool; trans_b : bool }
  | AddBias
  | ScaleBy
  | Slice of { axis : int; lo : int; hi : int }
  | PadSlice of { axis : int; lo : int; full : int }
  | Concat of { axis : int }
  | Reshape of Shape.t
  | Transpose2d
  | ReduceSum of { axis : int; keepdims : bool }
  | ReduceMean of { axis : int; keepdims : bool }
  | BroadcastAxis of { axis : int; n : int }
  | Softmax
  | LogSoftmax
  | CrossEntropy
  | CrossEntropyGrad
  | Embedding
  | EmbeddingGrad of { vocab : int }
  | Conv2d of { stride : int; pad : int }
  | Conv2dGradInput of { stride : int; pad : int; input_shape : Shape.t }
  | Conv2dGradKernel of { stride : int; pad : int; kernel_shape : Shape.t }

let arity = function
  | Placeholder | Variable | Zeros | ConstFill _ | DropoutMask _ -> Some 0
  | Neg | Scale _ | AddScalar _ | PowConst _ | Sigmoid | Tanh | Relu | Exp | Log
  | Sqrt | Sq | Recip | Sign | Reshape _ | Transpose2d | Slice _ | PadSlice _
  | ReduceSum _ | ReduceMean _ | BroadcastAxis _ | Softmax | LogSoftmax ->
    Some 1
  | Add | Sub | Mul | Div | Matmul _ | AddBias | ScaleBy | CrossEntropy
  | CrossEntropyGrad | Embedding | EmbeddingGrad _ | Conv2d _
  | Conv2dGradInput _ | Conv2dGradKernel _ ->
    Some 2
  | Concat _ -> None

let is_leaf op = arity op = Some 0
let is_pure (_ : t) = true

let is_cheap = function
  | Matmul _ | Conv2d _ | Conv2dGradInput _ | Conv2dGradKernel _ -> false
  | Placeholder | Variable | Zeros | ConstFill _ | DropoutMask _ | Neg | Scale _
  | AddScalar _ | PowConst _ | Sigmoid | Tanh | Relu | Exp | Log | Sqrt | Sq
  | Recip | Sign | Add | Sub | Mul | Div | AddBias | ScaleBy | Slice _
  | PadSlice _ | Concat _ | Reshape _ | Transpose2d | ReduceSum _ | ReduceMean _
  | BroadcastAxis _ | Softmax | LogSoftmax | CrossEntropy | CrossEntropyGrad
  | Embedding | EmbeddingGrad _ ->
    true

let is_recomputable op =
  is_pure op
  &&
  match op with
  | Placeholder | Variable -> false
  | Zeros | ConstFill _ | DropoutMask _ | Neg | Scale _ | AddScalar _
  | PowConst _ | Sigmoid | Tanh | Relu | Exp | Log | Sqrt | Sq | Recip | Sign
  | Add | Sub | Mul | Div | Matmul _ | AddBias | ScaleBy | Slice _ | PadSlice _
  | Concat _ | Reshape _ | Transpose2d | ReduceSum _ | ReduceMean _
  | BroadcastAxis _ | Softmax | LogSoftmax | CrossEntropy | CrossEntropyGrad
  | Embedding | EmbeddingGrad _ | Conv2d _ | Conv2dGradInput _
  | Conv2dGradKernel _ ->
    true

let unary_name = function
  | Neg -> "Neg"
  | Scale _ -> "Scale"
  | AddScalar _ -> "AddScalar"
  | PowConst _ -> "PowConst"
  | Sigmoid -> "Sigmoid"
  | Tanh -> "Tanh"
  | Relu -> "Relu"
  | Exp -> "Exp"
  | Log -> "Log"
  | Sqrt -> "Sqrt"
  | Sq -> "Sq"
  | Recip -> "Recip"
  | Sign -> "Sign"
  | _ -> "unary"

let to_string = function
  | Placeholder -> "Placeholder"
  | Variable -> "Variable"
  | Zeros -> "Zeros"
  | ConstFill v -> Printf.sprintf "ConstFill(%g)" v
  | DropoutMask { p; seed } -> Printf.sprintf "DropoutMask(p=%g,seed=%d)" p seed
  | (Neg | Scale _ | AddScalar _ | PowConst _ | Sigmoid | Tanh | Relu | Exp
    | Log | Sqrt | Sq | Recip | Sign) as op -> (
    match op with
    | Scale k -> Printf.sprintf "Scale(%g)" k
    | AddScalar k -> Printf.sprintf "AddScalar(%g)" k
    | PowConst p -> Printf.sprintf "PowConst(%g)" p
    | other -> unary_name other)
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Div -> "Div"
  | Matmul { trans_a; trans_b } ->
    Printf.sprintf "Matmul(%s,%s)"
      (if trans_a then "T" else "N")
      (if trans_b then "T" else "N")
  | AddBias -> "AddBias"
  | ScaleBy -> "ScaleBy"
  | Slice { axis; lo; hi } -> Printf.sprintf "Slice(ax=%d,[%d,%d))" axis lo hi
  | PadSlice { axis; lo; full } ->
    Printf.sprintf "PadSlice(ax=%d,lo=%d,full=%d)" axis lo full
  | Concat { axis } -> Printf.sprintf "Concat(ax=%d)" axis
  | Reshape s -> Printf.sprintf "Reshape(%s)" (Shape.to_string s)
  | Transpose2d -> "Transpose2d"
  | ReduceSum { axis; keepdims } ->
    Printf.sprintf "ReduceSum(ax=%d,keep=%b)" axis keepdims
  | ReduceMean { axis; keepdims } ->
    Printf.sprintf "ReduceMean(ax=%d,keep=%b)" axis keepdims
  | BroadcastAxis { axis; n } -> Printf.sprintf "BroadcastAxis(ax=%d,n=%d)" axis n
  | Softmax -> "Softmax"
  | LogSoftmax -> "LogSoftmax"
  | CrossEntropy -> "CrossEntropy"
  | CrossEntropyGrad -> "CrossEntropyGrad"
  | Embedding -> "Embedding"
  | EmbeddingGrad { vocab } -> Printf.sprintf "EmbeddingGrad(V=%d)" vocab
  | Conv2d { stride; pad } -> Printf.sprintf "Conv2d(s=%d,p=%d)" stride pad
  | Conv2dGradInput { stride; pad; _ } ->
    Printf.sprintf "Conv2dGradInput(s=%d,p=%d)" stride pad
  | Conv2dGradKernel { stride; pad; _ } ->
    Printf.sprintf "Conv2dGradKernel(s=%d,p=%d)" stride pad

let pp fmt op = Format.pp_print_string fmt (to_string op)

(* [to_string] prints floats with [%g] (6 significant digits) and leaves out
   the shapes the convolution gradients carry; the key spells every
   attribute exactly, floats by their bits. *)
let key op =
  let bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v) in
  match op with
  | ConstFill v -> "ConstFill#" ^ bits v
  | DropoutMask { p; seed } -> Printf.sprintf "DropoutMask#%s,%d" (bits p) seed
  | Scale k -> "Scale#" ^ bits k
  | AddScalar k -> "AddScalar#" ^ bits k
  | PowConst p -> "PowConst#" ^ bits p
  | Conv2dGradInput { stride; pad; input_shape } ->
    Printf.sprintf "Conv2dGradInput(s=%d,p=%d,%s)" stride pad
      (Shape.to_string input_shape)
  | Conv2dGradKernel { stride; pad; kernel_shape } ->
    Printf.sprintf "Conv2dGradKernel(s=%d,p=%d,%s)" stride pad
      (Shape.to_string kernel_shape)
  | other -> to_string other

(* The op's name is formatted only once a check has failed: shape
   inference runs for every node built. *)
let shape_error op msg =
  invalid_arg (Printf.sprintf "Op.infer_shape(%s): %s" (to_string op) msg)

let expect_rank op r s =
  if Shape.rank s <> r then
    shape_error op (Printf.sprintf "expected rank %d, got %s" r (Shape.to_string s))

let expect_equal op a b =
  if not (Shape.equal a b) then
    shape_error op
      (Printf.sprintf "shape mismatch %s vs %s" (Shape.to_string a) (Shape.to_string b))

let infer_shape op input_shapes explicit =
  let nargs = List.length input_shapes in
  (match arity op with
  | Some n when n <> nargs ->
    shape_error op (Printf.sprintf "expected %d inputs, got %d" n nargs)
  | Some _ | None -> ());
  (match (explicit, is_leaf op) with
  | Some _, false -> shape_error op "explicit shape given for a non-leaf"
  | None, true -> shape_error op "leaf requires an explicit shape"
  | _ -> ());
  match (op, input_shapes) with
  | (Placeholder | Variable | Zeros | ConstFill _ | DropoutMask _), [] -> (
    match explicit with
    | Some s ->
      Shape.validate s;
      s
    | None -> assert false)
  | ( ( Neg | Scale _ | AddScalar _ | PowConst _ | Sigmoid | Tanh | Relu | Exp
      | Log | Sqrt | Sq | Recip | Sign ),
      [ s ] ) ->
    s
  | (Add | Sub | Mul | Div), [ a; b ] ->
    expect_equal op a b;
    a
  | Matmul { trans_a; trans_b }, [ a; b ] ->
    expect_rank op 2 a;
    expect_rank op 2 b;
    let m, k = if trans_a then (a.(1), a.(0)) else (a.(0), a.(1)) in
    let k', n = if trans_b then (b.(1), b.(0)) else (b.(0), b.(1)) in
    if k <> k' then
      shape_error op
        (Printf.sprintf "inner dims %d vs %d (%s x %s)" k k' (Shape.to_string a)
           (Shape.to_string b));
    [| m; n |]
  | AddBias, [ m; b ] ->
    expect_rank op 2 m;
    expect_rank op 1 b;
    if m.(1) <> b.(0) then shape_error op "bias length mismatch";
    m
  | ScaleBy, [ x; s ] ->
    if Shape.rank s <> 0 then shape_error op "second input must be a scalar";
    x
  | Slice { axis; lo; hi }, [ s ] -> Shape.slice_result ~axis ~lo ~hi s
  | PadSlice { axis; lo; full }, [ s ] ->
    if axis < 0 || axis >= Shape.rank s then shape_error op "axis out of bounds";
    if lo < 0 || lo + s.(axis) > full then shape_error op "slice does not fit";
    Array.mapi (fun i d -> if i = axis then full else d) s
  | Concat { axis }, first :: rest ->
    List.fold_left (fun acc s -> Shape.concat_result ~axis acc s) first rest
  | Concat _, [] -> shape_error op "empty input list"
  | Reshape target, [ s ] ->
    if Shape.numel target <> Shape.numel s then
      shape_error op
        (Printf.sprintf "cannot reshape %s to %s" (Shape.to_string s)
           (Shape.to_string target));
    target
  | Transpose2d, [ s ] ->
    expect_rank op 2 s;
    [| s.(1); s.(0) |]
  | (ReduceSum { axis; keepdims } | ReduceMean { axis; keepdims }), [ s ] ->
    if axis < 0 || axis >= Shape.rank s then shape_error op "axis out of bounds";
    if keepdims then Array.mapi (fun i d -> if i = axis then 1 else d) s
    else if Shape.rank s = 1 then Shape.scalar
    else begin
      let out = Array.make (Shape.rank s - 1) 0 in
      let j = ref 0 in
      Array.iteri
        (fun i d ->
          if i <> axis then begin
            out.(!j) <- d;
            incr j
          end)
        s;
      out
    end
  | BroadcastAxis { axis; n }, [ s ] ->
    if axis < 0 || axis >= Shape.rank s then shape_error op "axis out of bounds";
    if s.(axis) <> 1 then shape_error op "broadcast axis dim must be 1";
    Array.mapi (fun i d -> if i = axis then n else d) s
  | (Softmax | LogSoftmax), [ s ] ->
    if Shape.rank s < 1 then shape_error op "rank must be >= 1";
    s
  | CrossEntropy, [ logits; labels ] ->
    expect_rank op 2 logits;
    expect_rank op 1 labels;
    if logits.(0) <> labels.(0) then shape_error op "batch mismatch";
    Shape.scalar
  | CrossEntropyGrad, [ logits; labels ] ->
    expect_rank op 2 logits;
    expect_rank op 1 labels;
    if logits.(0) <> labels.(0) then shape_error op "batch mismatch";
    logits
  | Embedding, [ table; ids ] ->
    expect_rank op 2 table;
    expect_rank op 1 ids;
    [| ids.(0); table.(1) |]
  | EmbeddingGrad { vocab }, [ ids; grad_out ] ->
    expect_rank op 1 ids;
    expect_rank op 2 grad_out;
    if grad_out.(0) <> ids.(0) then shape_error op "batch mismatch";
    [| vocab; grad_out.(1) |]
  | Conv2d { stride; pad }, [ input; kernel ] ->
    expect_rank op 4 input;
    expect_rank op 4 kernel;
    if input.(1) <> kernel.(1) then shape_error op "channel mismatch";
    let out d k = ((d + (2 * pad) - k) / stride) + 1 in
    let oh = out input.(2) kernel.(2) and ow = out input.(3) kernel.(3) in
    if oh < 1 || ow < 1 then shape_error op "output collapses to zero";
    [| input.(0); kernel.(0); oh; ow |]
  | Conv2dGradInput { input_shape; _ }, [ kernel; grad_out ] ->
    expect_rank op 4 kernel;
    expect_rank op 4 grad_out;
    input_shape
  | Conv2dGradKernel { kernel_shape; _ }, [ input; grad_out ] ->
    expect_rank op 4 input;
    expect_rank op 4 grad_out;
    kernel_shape
  | _, _ -> shape_error op "wrong number of inputs"
