open Echo_ir

type interval = { node : Node.t; def_step : int; last_step : int }

type t = {
  by_id : (int, interval) Hashtbl.t;
  ordered : interval list;
  deaths : (int, Node.t list) Hashtbl.t;  (* step -> buffers dying there *)
  steps : int;
}

let is_persistent node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> true
  | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _ | Op.Neg | Op.Scale _
  | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh | Op.Relu | Op.Exp
  | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add | Op.Sub | Op.Mul
  | Op.Div | Op.Matmul _ | Op.AddBias | Op.ScaleBy | Op.Slice _ | Op.PadSlice _
  | Op.Concat _ | Op.Reshape _ | Op.Transpose2d | Op.ReduceSum _
  | Op.ReduceMean _ | Op.BroadcastAxis _ | Op.Softmax | Op.LogSoftmax
  | Op.CrossEntropy | Op.CrossEntropyGrad | Op.Embedding | Op.EmbeddingGrad _
  | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let analyse ?fusion graph =
  let schedule = Graph.nodes graph in
  let position = Hashtbl.create 1024 in
  List.iteri (fun i n -> Hashtbl.replace position (Node.id n) i) schedule;
  (* Under fusion, a group member's reads happen when the group's root
     instruction runs, so every buffer a member consumes must stay live to
     the root's step (the fused kernel reads it there); and interiors never
     materialize, so they get no interval at all. *)
  let read_pos c =
    match fusion with
    | Some f -> Hashtbl.find position (Node.id (Fuse.reader f c))
    | None -> Hashtbl.find position (Node.id c)
  in
  let interior node =
    match fusion with
    | Some f -> Fuse.is_interior f (Node.id node)
    | None -> false
  in
  let by_id = Hashtbl.create 1024 in
  let deaths = Hashtbl.create 1024 in
  let ordered = ref [] in
  List.iteri
    (fun i node ->
      if (not (is_persistent node)) && not (interior node) then begin
        let last =
          if Graph.is_output graph (Node.id node) then max_int
          else
            List.fold_left
              (fun acc c -> max acc (read_pos c))
              i
              (Graph.consumers graph (Node.id node))
        in
        let itv = { node; def_step = i; last_step = last } in
        Hashtbl.replace by_id (Node.id node) itv;
        ordered := itv :: !ordered;
        if last <> max_int then begin
          let cur = try Hashtbl.find deaths last with Not_found -> [] in
          Hashtbl.replace deaths last (node :: cur)
        end
      end)
    schedule;
  { by_id; ordered = List.rev !ordered; deaths; steps = List.length schedule }

(* Rebuild an analysis from explicit intervals. The memory planner frees
   and recycles buffers off whatever [t] it is handed, and the executor
   allocates that plan, so this is the injection point for the race-verify
   mutation harness: a corrupted interval list becomes a real executor
   whose slab reuse genuinely clobbers live data. *)
let of_intervals ~steps intervals =
  let by_id = Hashtbl.create (2 * List.length intervals) in
  let deaths = Hashtbl.create (2 * List.length intervals) in
  List.iter
    (fun itv ->
      Hashtbl.replace by_id (Node.id itv.node) itv;
      if itv.last_step <> max_int then begin
        let cur = try Hashtbl.find deaths itv.last_step with Not_found -> [] in
        Hashtbl.replace deaths itv.last_step (itv.node :: cur)
      end)
    intervals;
  { by_id; ordered = intervals; deaths; steps }

let intervals t = t.ordered
let interval t id = Hashtbl.find t.by_id id
let step_count t = t.steps
let dying_at t step = try Hashtbl.find t.deaths step with Not_found -> []

let crosses_into_backward _t graph id =
  let node = Graph.find graph id in
  Node.region node = Node.Forward
  && List.exists
       (fun c -> Node.region c = Node.Backward)
       (Graph.consumers graph id)

let stash_bytes t graph =
  List.fold_left
    (fun acc itv ->
      if crosses_into_backward t graph (Node.id itv.node) then
        acc + Node.size_bytes itv.node
      else acc)
    0 t.ordered
