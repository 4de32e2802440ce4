open Echo_ir

type report = {
  arena_bytes : int;
  live_peak_bytes : int;
  peak_step : int;
  weight_bytes : int;
  input_bytes : int;
  stash_bytes : int;
  max_workspace_bytes : int;
  breakdown : (Category.t * int) list;
  node_count : int;
  step_of_backward_start : int option;
  buffer_of_slot : int array;
}

(* Elementwise operators may write their result into a dying input's buffer
   of the same size (MXNet's in-place optimisation). *)
let inplace_capable node =
  match Node.op node with
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.AddBias | Op.ScaleBy ->
    true
  | Op.Softmax | Op.LogSoftmax | Op.CrossEntropyGrad ->
    (* fused softmax/softmax-xent kernels overwrite their input *)
    true
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _
  | Op.Matmul _ | Op.Slice _ | Op.PadSlice _ | Op.Concat _ | Op.Reshape _
  | Op.Transpose2d | Op.ReduceSum _ | Op.ReduceMean _ | Op.BroadcastAxis _
  | Op.CrossEntropy | Op.Embedding | Op.EmbeddingGrad _ | Op.Conv2d _
  | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let plan ?(reuse = true) ?(inplace = true) ?fusion ?liveness graph =
  let liveness =
    match liveness with Some l -> l | None -> Liveness.analyse ?fusion graph
  in
  let schedule = Graph.nodes graph in
  (* Fused interiors never materialize: no allocation, no liveness, and the
     in-place candidates of a group root are the group's external inputs —
     the buffers its fused instruction actually reads. *)
  let interior node =
    match fusion with
    | Some f -> Fuse.is_interior f (Node.id node)
    | None -> false
  in
  let inplace_inputs node =
    match fusion with
    | Some f -> Fuse.inplace_candidates f node
    | None -> Node.inputs node
  in
  let weight_bytes = ref 0 and input_bytes = ref 0 in
  List.iter
    (fun n ->
      match Node.op n with
      | Op.Variable -> weight_bytes := !weight_bytes + Node.size_bytes n
      | Op.Placeholder -> input_bytes := !input_bytes + Node.size_bytes n
      | _ -> ())
    schedule;
  let persistent = !weight_bytes + !input_bytes in
  (* Exact-size free pool: size -> ids of the free buffers of that size,
     most recently freed first. *)
  let pool : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let pool_take size =
    match Hashtbl.find_opt pool size with
    | Some (b :: rest) ->
      Hashtbl.replace pool size rest;
      Some b
    | Some [] | None -> None
  in
  let pool_put size b =
    Hashtbl.replace pool size
      (b :: Option.value (Hashtbl.find_opt pool size) ~default:[])
  in
  (* Per-slot state. A transient node's slot is its liveness interval's
     [def_step], so inputs and dying nodes are found without a lookup
     table of their own. *)
  let n = List.length schedule in
  let buffer_of_slot = Array.make n (-1) in
  (* Slots whose buffer was handed over to an in-place consumer: they must
     not be freed again when their death step is processed. *)
  let transferred = Array.make n false in
  let category = Array.make n (-1) in
  let cat_of slot node =
    if category.(slot) < 0 then
      category.(slot) <- Category.index (Category.of_node graph node);
    category.(slot)
  in
  let arena = ref 0 in
  let live = ref 0 in
  let live_by_cat = Array.make Category.count 0 in
  live_by_cat.(Category.index Category.Weights) <- !weight_bytes;
  live_by_cat.(Category.index Category.Inputs) <- !input_bytes;
  let live_peak = ref persistent and peak_step = ref 0 in
  let peak_breakdown = ref (Array.copy live_by_cat) in
  let peak_ws = ref 0 in
  let max_ws = ref 0 in
  let bwd_start = ref None in
  let next_bid = ref 0 in
  (* The slot of the first input whose buffer [node] may write into: a
     bound transient buffer (persistent nodes and fused interiors have
     none) of the same size, dying at this very step. *)
  let inplace_donor step node =
    if not (inplace && inplace_capable node) then None
    else
      let size = Node.size_bytes node in
      List.find_map
        (fun input ->
          match Liveness.interval liveness (Node.id input) with
          | exception Not_found -> None
          | itv ->
            let s = itv.Liveness.def_step in
            if
              itv.Liveness.last_step = step
              && buffer_of_slot.(s) >= 0
              && (not transferred.(s))
              && Node.size_bytes input = size
              && not (Graph.is_output graph (Node.id input))
            then Some (s, input)
            else None)
        (inplace_inputs node)
  in
  List.iteri
    (fun step node ->
      if !bwd_start = None && Node.region node = Node.Backward then
        bwd_start := Some step;
      if (not (Liveness.is_persistent node)) && not (interior node) then begin
        let size = Node.size_bytes node in
        buffer_of_slot.(step) <-
          (match inplace_donor step node with
          | Some (s, input) ->
            transferred.(s) <- true;
            let from_cat = cat_of s input and to_cat = cat_of step node in
            live_by_cat.(from_cat) <- live_by_cat.(from_cat) - size;
            live_by_cat.(to_cat) <- live_by_cat.(to_cat) + size;
            buffer_of_slot.(s)
          | None -> (
            live := !live + size;
            let ci = cat_of step node in
            live_by_cat.(ci) <- live_by_cat.(ci) + size;
            match if reuse then pool_take size else None with
            | Some b -> b
            | None ->
              arena := !arena + size;
              let b = !next_bid in
              incr next_bid;
              b))
      end;
      let ws = Workspace.bytes node in
      if ws > !max_ws then max_ws := ws;
      let candidate = persistent + !live + ws in
      if candidate > !live_peak then begin
        live_peak := candidate;
        peak_step := step;
        peak_breakdown := Array.copy live_by_cat;
        peak_ws := ws
      end;
      List.iter
        (fun dying ->
          let s =
            (Liveness.interval liveness (Node.id dying)).Liveness.def_step
          in
          let b = buffer_of_slot.(s) in
          if b >= 0 && not transferred.(s) then begin
            let size = Node.size_bytes dying in
            live := !live - size;
            let ci = cat_of s dying in
            live_by_cat.(ci) <- live_by_cat.(ci) - size;
            pool_put size b
          end)
        (Liveness.dying_at liveness step))
    schedule;
  let breakdown_arr = !peak_breakdown in
  breakdown_arr.(Category.index Category.Workspace) <- !peak_ws;
  let breakdown =
    List.map (fun c -> (c, breakdown_arr.(Category.index c))) Category.all
  in
  {
    arena_bytes = persistent + !arena + !max_ws;
    live_peak_bytes = !live_peak;
    peak_step = !peak_step;
    weight_bytes = !weight_bytes;
    input_bytes = !input_bytes;
    stash_bytes = Liveness.stash_bytes liveness graph;
    max_workspace_bytes = !max_ws;
    breakdown;
    node_count = n;
    step_of_backward_start = !bwd_start;
    buffer_of_slot;
  }

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let pp fmt r =
  Format.fprintf fmt
    "arena=%.1f MiB live_peak=%.1f MiB (step %d/%d) weights=%.1f MiB stash=%.1f \
     MiB ws=%.1f MiB"
    (mib r.arena_bytes) (mib r.live_peak_bytes) r.peak_step r.node_count
    (mib r.weight_bytes) (mib r.stash_bytes) (mib r.max_workspace_bytes)
