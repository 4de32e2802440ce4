open Echo_tensor
open Echo_ir

let elts node = float_of_int (Shape.numel (Node.shape node))
let input_elts node =
  List.fold_left (fun acc i -> acc +. float_of_int (Shape.numel (Node.shape i))) 0.0
    (Node.inputs node)

(* Weight of one elementwise application, relative to a fused multiply-add.
   Transcendentals expand to polynomial approximations on real hardware. *)
let transcendental = 8.0

let conv_macs node =
  match (Node.op node, Node.shape node, Node.inputs node) with
  | Op.Conv2d _, out, [ _; kernel ] ->
    let ks = Node.shape kernel in
    float_of_int (Shape.numel out) *. float_of_int (ks.(1) * ks.(2) * ks.(3))
  | Op.Conv2dGradInput _, _, [ kernel; grad_out ] ->
    let ks = Node.shape kernel in
    float_of_int (Shape.numel (Node.shape grad_out))
    *. float_of_int (ks.(1) * ks.(2) * ks.(3))
  | Op.Conv2dGradKernel { kernel_shape; _ }, _, [ _; grad_out ] ->
    float_of_int (Shape.numel (Node.shape grad_out))
    *. float_of_int (kernel_shape.(1) * kernel_shape.(2) * kernel_shape.(3))
  | _ -> invalid_arg "conv_macs: not a convolution"

let node_flops node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> 0.0
  | Op.Zeros | Op.ConstFill _ -> 0.0
  | Op.DropoutMask _ -> 4.0 *. elts node
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.Sq | Op.Sign | Op.Recip ->
    elts node
  | Op.PowConst _ | Op.Sigmoid | Op.Tanh | Op.Exp | Op.Log | Op.Sqrt ->
    transcendental *. elts node
  | Op.Relu -> elts node
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.AddBias | Op.ScaleBy -> elts node
  | Op.Matmul { trans_a; trans_b } -> (
    match Node.inputs node with
    | [ a; _ ] ->
      let sa = Node.shape a in
      let k = if trans_a then sa.(0) else sa.(1) in
      ignore trans_b;
      2.0 *. elts node *. float_of_int k
    | _ -> invalid_arg "node_flops: malformed Matmul")
  | Op.Slice _ | Op.PadSlice _ | Op.Concat _ | Op.Reshape _ | Op.Transpose2d
  | Op.BroadcastAxis _ ->
    0.0
  | Op.ReduceSum _ | Op.ReduceMean _ -> input_elts node
  | Op.Softmax | Op.LogSoftmax -> (2.0 +. transcendental) *. elts node
  | Op.CrossEntropy | Op.CrossEntropyGrad -> (2.0 +. transcendental) *. input_elts node
  | Op.Embedding | Op.EmbeddingGrad _ -> 0.0
  | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    2.0 *. conv_macs node

let node_bytes node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> 0.0
  | _ -> 4.0 *. (elts node +. input_elts node)

(* One launch plus a roofline pass. *)
let kernel_time device ~flops ~bytes =
  device.Device.launch_overhead_s
  +. Float.max (flops /. device.Device.peak_flops) (bytes /. device.Device.bandwidth)

let node_time device node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> 0.0
  | _ -> kernel_time device ~flops:(node_flops node) ~bytes:(node_bytes node)

let schedule_time device nodes =
  List.fold_left (fun acc n -> acc +. node_time device n) 0.0 nodes

let graph_time device graph = schedule_time device (Graph.nodes graph)

(* A fused group runs as one kernel: compute is the sum of the members'
   flops (every scalar op still executes), but bytes are counted once — the
   external inputs are read once and only the root is written, which is
   precisely what [Tensor.Into.fused] does. *)
let group_work g =
  let flops =
    List.fold_left (fun a m -> a +. node_flops m) 0.0 g.Fuse.members
  in
  let numels =
    List.fold_left
      (fun a e -> a + Shape.numel (Node.shape e))
      (Shape.numel (Node.shape g.Fuse.root))
      g.Fuse.externals
  in
  (flops, 4.0 *. float_of_int numels)

let fused_time ~node ~group graph =
  let p = Fuse.analyse graph in
  List.fold_left
    (fun acc n ->
      if Fuse.is_interior p (Node.id n) then acc
      else
        match Fuse.group_of_root p (Node.id n) with
        | Some g -> acc +. group g
        | None -> acc +. node n)
    0.0 (Graph.nodes graph)

let fused_graph_time device graph =
  fused_time graph ~node:(node_time device) ~group:(fun g ->
      let flops, bytes = group_work g in
      kernel_time device ~flops ~bytes)

type phase_times = { forward_s : float; backward_s : float; total_s : float }

let phase_times device graph =
  let forward_s = schedule_time device (Graph.forward_nodes graph) in
  let backward_s = schedule_time device (Graph.backward_nodes graph) in
  { forward_s; backward_s; total_s = forward_s +. backward_s }

type kernel_class = Gemm | Conv | Elementwise | DataMovement | Reduction | Other

let classify = function
  | Op.Matmul _ -> Gemm
  | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ -> Conv
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.AddBias | Op.ScaleBy | Op.DropoutMask _
  | Op.Zeros | Op.ConstFill _ ->
    Elementwise
  | Op.Slice _ | Op.PadSlice _ | Op.Concat _ | Op.Reshape _ | Op.Transpose2d
  | Op.BroadcastAxis _ | Op.Embedding | Op.EmbeddingGrad _ ->
    DataMovement
  | Op.ReduceSum _ | Op.ReduceMean _ | Op.Softmax | Op.LogSoftmax
  | Op.CrossEntropy | Op.CrossEntropyGrad ->
    Reduction
  | Op.Placeholder | Op.Variable -> Other

let time_by_class device graph =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let c = classify (Node.op n) in
      let t = node_time device n in
      Hashtbl.replace totals c (t +. try Hashtbl.find totals c with Not_found -> 0.0))
    (Graph.nodes graph);
  Hashtbl.fold (fun c t acc -> if t > 0.0 then (c, t) :: acc else acc) totals []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let optimizer_update_time device ~weight_bytes ~param_count ~state_tensors =
  let streamed = float_of_int (weight_bytes * (2 + state_tensors)) in
  (float_of_int param_count *. device.Device.launch_overhead_s)
  +. (streamed /. device.Device.bandwidth)
