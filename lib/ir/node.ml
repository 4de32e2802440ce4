open Echo_tensor

type region = Forward | Backward

type t = {
  id : int;
  name : string;
  op : Op.t;
  inputs : t list;
  shape : Shape.t;
  region : region;
  hint : float;  (* scheduling priority; defaults to creation order *)
}

(* Atomic so independent graphs may be built from different domains at once
   (the campaign orchestrator does): each builder sees strictly increasing
   ids, and everything downstream (schedules, hints, liveness) depends only
   on the *relative* order of ids within one graph, which interleaving
   preserves. *)
let counter = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add counter 1

let create ?name ?(region = Forward) ?shape ?hint op inputs =
  let input_shapes = List.map (fun n -> n.shape) inputs in
  let out_shape = Op.infer_shape op input_shapes shape in
  let id = fresh_id () in
  let name =
    match name with Some n -> n | None -> "n" ^ string_of_int id
  in
  let hint = match hint with Some h -> h | None -> float_of_int id in
  { id; name; op; inputs; shape = out_shape; region; hint }

let clone_with_inputs ?region ?name ?hint node inputs =
  let region = Option.value region ~default:node.region in
  let name = Option.value name ~default:node.name in
  let hint = Option.value hint ~default:node.hint in
  let shape =
    match Op.arity node.op with Some 0 -> Some node.shape | Some _ | None -> None
  in
  create ~name ~region ?shape ~hint node.op inputs

let id n = n.id
let hint n = n.hint
let shape n = n.shape
let op n = n.op
let inputs n = n.inputs
let region n = n.region
let name n = n.name
let elem_bytes = 4
let size_bytes n = elem_bytes * Shape.numel n.shape
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

(* Construction DSL *)

let placeholder ?name shape = create ?name ~shape Op.Placeholder []
let variable ?name shape = create ?name ~shape Op.Variable []
let zeros ?name ?region shape = create ?name ?region ~shape Op.Zeros []
let const_fill ?name ?region v shape = create ?name ?region ~shape (Op.ConstFill v) []

let dropout_mask ?name ~p ~seed shape =
  create ?name ~shape (Op.DropoutMask { p; seed }) []

let binop op ?region a b = create ?region op [ a; b ]
let unop op ?region a = create ?region op [ a ]
let add ?region a b = binop Op.Add ?region a b
let sub ?region a b = binop Op.Sub ?region a b
let mul ?region a b = binop Op.Mul ?region a b
let div ?region a b = binop Op.Div ?region a b
let neg ?region a = unop Op.Neg ?region a
let scale ?region k a = unop (Op.Scale k) ?region a
let add_scalar ?region k a = unop (Op.AddScalar k) ?region a
let pow_const ?region p a = unop (Op.PowConst p) ?region a
let sigmoid ?name ?region a = create ?name ?region Op.Sigmoid [ a ]
let tanh_ ?name ?region a = create ?name ?region Op.Tanh [ a ]
let relu ?name ?region a = create ?name ?region Op.Relu [ a ]
let exp_ ?region a = unop Op.Exp ?region a
let log_ ?region a = unop Op.Log ?region a
let sqrt_ ?region a = unop Op.Sqrt ?region a
let sq ?region a = unop Op.Sq ?region a
let recip ?region a = unop Op.Recip ?region a
let sign ?region a = unop Op.Sign ?region a

let matmul ?name ?region ?(trans_a = false) ?(trans_b = false) a b =
  create ?name ?region (Op.Matmul { trans_a; trans_b }) [ a; b ]

let add_bias ?name ?region m b = create ?name ?region Op.AddBias [ m; b ]
let scale_by ?region x s = create ?region Op.ScaleBy [ x; s ]

let slice ?name ?region ~axis ~lo ~hi a =
  create ?name ?region (Op.Slice { axis; lo; hi }) [ a ]

let pad_slice ?region ~axis ~lo ~full a =
  create ?region (Op.PadSlice { axis; lo; full }) [ a ]

let concat ?name ?region ~axis xs = create ?name ?region (Op.Concat { axis }) xs
let reshape ?region s a = create ?region (Op.Reshape s) [ a ]
let transpose2d ?region a = create ?region Op.Transpose2d [ a ]

let reduce_sum ?region ~axis ~keepdims a =
  create ?region (Op.ReduceSum { axis; keepdims }) [ a ]

let reduce_mean ?region ~axis ~keepdims a =
  create ?region (Op.ReduceMean { axis; keepdims }) [ a ]

let broadcast_axis ?region ~axis ~n a =
  create ?region (Op.BroadcastAxis { axis; n }) [ a ]

let softmax ?name ?region a = create ?name ?region Op.Softmax [ a ]
let log_softmax ?name ?region a = create ?name ?region Op.LogSoftmax [ a ]

let cross_entropy ~logits ~labels = create Op.CrossEntropy [ logits; labels ]

let cross_entropy_grad ~logits ~labels =
  create ~region:Backward Op.CrossEntropyGrad [ logits; labels ]

let embedding ~table ~ids = create Op.Embedding [ table; ids ]

let embedding_grad ~vocab ~ids ~grad_out =
  create ~region:Backward (Op.EmbeddingGrad { vocab }) [ ids; grad_out ]

let conv2d ~stride ~pad ~input ~kernel =
  create (Op.Conv2d { stride; pad }) [ input; kernel ]

let pp fmt n =
  Format.fprintf fmt "#%d %s %s %s %s" n.id n.name (Op.to_string n.op)
    (Shape.to_string n.shape)
    (match n.region with Forward -> "fwd" | Backward -> "bwd")
