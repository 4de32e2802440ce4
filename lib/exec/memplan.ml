open Echo_ir

type report = {
  arena_bytes : int;
  slab_bytes : int;
  live_peak_bytes : int;
  peak_step : int;
  weight_bytes : int;
  input_bytes : int;
  stash_bytes : int;
  max_workspace_bytes : int;
  breakdown : (Category.t * int) list;
  node_count : int;
  step_of_backward_start : int option;
  offset_of_slot : int array;
  expiry_of_slot : int array;
  fusion : Fuse.plan option;
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

(* The free ranges of the slab below its high-water mark, as two parallel
   arrays sorted by offset, with adjacent holes merged. Preallocated for
   the largest possible hole count, so taking and returning a range
   allocates nothing. *)
type holes = {
  h_off : int array;
  h_size : int array;
  mutable count : int;
  mutable top : int;  (** the slab's high-water mark *)
}

let remove_hole h i =
  Array.blit h.h_off (i + 1) h.h_off i (h.count - i - 1);
  Array.blit h.h_size (i + 1) h.h_size i (h.count - i - 1);
  h.count <- h.count - 1

(* Best fit: the smallest hole that holds [size], the lowest-offset one
   among equals. With none, the range starts at the hole that reaches the
   high-water mark, if there is one, and the slab grows by what that hole
   lacks; else it starts at the high-water mark. *)
let take h size =
  let best = ref (-1) in
  for i = 0 to h.count - 1 do
    let s = h.h_size.(i) in
    if s >= size && (!best < 0 || s < h.h_size.(!best)) then best := i
  done;
  match !best with
  | -1 ->
    let last = h.count - 1 in
    let off =
      if last >= 0 && h.h_off.(last) + h.h_size.(last) = h.top then begin
        let o = h.h_off.(last) in
        remove_hole h last;
        o
      end
      else h.top
    in
    h.top <- off + size;
    off
  | i ->
    let off = h.h_off.(i) in
    if h.h_size.(i) = size then remove_hole h i
    else begin
      h.h_off.(i) <- off + size;
      h.h_size.(i) <- h.h_size.(i) - size
    end;
    off

let give_back h off size =
  (* [p]: the first hole above [off]. *)
  let lo = ref 0 and hi = ref h.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.h_off.(mid) < off then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  let joins_prev = p > 0 && h.h_off.(p - 1) + h.h_size.(p - 1) = off in
  let joins_next = p < h.count && off + size = h.h_off.(p) in
  if joins_prev && joins_next then begin
    h.h_size.(p - 1) <- h.h_size.(p - 1) + size + h.h_size.(p);
    remove_hole h p
  end
  else if joins_prev then h.h_size.(p - 1) <- h.h_size.(p - 1) + size
  else if joins_next then begin
    h.h_off.(p) <- off;
    h.h_size.(p) <- h.h_size.(p) + size
  end
  else begin
    Array.blit h.h_off p h.h_off (p + 1) (h.count - p);
    Array.blit h.h_size p h.h_size (p + 1) (h.count - p);
    h.h_off.(p) <- off;
    h.h_size.(p) <- size;
    h.count <- h.count + 1
  end

let plan ?(reuse = true) ?(inplace = true) ?fusion ?liveness graph =
  let liveness =
    match liveness with Some l -> l | None -> Liveness.analyse ?fusion graph
  in
  let n = Graph.node_count graph in
  (* Fused interiors never materialize: no allocation, no liveness, and the
     in-place candidates of a group root are the group's external inputs —
     the buffers its fused instruction actually reads. Both by slot. *)
  let reader =
    match fusion with
    | Some f -> Fuse.reader_slots f graph
    | None -> Array.init n Fun.id
  in
  let interior s = reader.(s) <> s in
  let externals = Array.make n None in
  Option.iter
    (fun f ->
      let slot_of e =
        match Graph.position graph (Node.id e) with
        | s -> s
        | exception Not_found -> -1
      in
      List.iter
        (fun g ->
          match Graph.position graph (Node.id g.Fuse.root) with
          | r -> externals.(r) <- Some (List.map slot_of g.Fuse.externals)
          | exception Not_found -> ())
        (Fuse.groups f))
    fusion;
  let weight_bytes = ref 0 and input_bytes = ref 0 in
  for s = 0 to n - 1 do
    let node = Graph.node_at graph s in
    match Node.op node with
    | Op.Variable -> weight_bytes := !weight_bytes + Node.size_bytes node
    | Op.Placeholder -> input_bytes := !input_bytes + Node.size_bytes node
    | _ -> ()
  done;
  let persistent = !weight_bytes + !input_bytes in
  (* Holes and placed ranges alternate below the high-water mark, so there
     are never more than n + 1 holes. *)
  let holes =
    {
      h_off = Array.make (n + 1) 0;
      h_size = Array.make (n + 1) 0;
      count = 0;
      top = 0;
    }
  in
  let offset_of_slot = Array.make n (-1) in
  (* Slots whose buffer was handed over to an in-place consumer: they must
     not be freed again when their death step is processed. *)
  let transferred = Array.make n false in
  let category = Array.make n (-1) in
  let cat_of slot =
    if category.(slot) < 0 then
      category.(slot) <- Category.index (Category.of_slot graph slot);
    category.(slot)
  in
  let live = ref 0 in
  let live_by_cat = Array.make Category.count 0 in
  live_by_cat.(Category.index Category.Weights) <- !weight_bytes;
  live_by_cat.(Category.index Category.Inputs) <- !input_bytes;
  let live_peak = ref persistent and peak_step = ref 0 in
  let peak_breakdown = ref (Array.copy live_by_cat) in
  let peak_ws = ref 0 in
  let max_ws = ref 0 in
  let bwd_start = ref None in
  (* The first input slot whose range the slot at [step] may write into: a
     placed transient value (persistent nodes and fused interiors have no
     range) of the same size, dying at this very step; -1 for none. *)
  let inplace_donor step node =
    if not (inplace && inplace_capable node) then -1
    else
      let size = Node.size_bytes node in
      let donor found u =
        if
          found < 0 && u >= 0
          && Liveness.last_read liveness u = step
          && offset_of_slot.(u) >= 0
          && (not transferred.(u))
          && Node.size_bytes (Graph.node_at graph u) = size
          && not (Graph.is_output_at graph u)
        then u
        else found
      in
      match externals.(step) with
      | Some slots -> List.fold_left donor (-1) slots
      | None -> Graph.fold_inputs_at graph step donor (-1)
  in
  (* Values whose last read is [step] are given back only after the step
     placed its result: an instruction's output never overlaps a range it
     reads, except the in-place donor's. *)
  let expire s =
    let off = offset_of_slot.(s) in
    if off >= 0 && not transferred.(s) then begin
      let size = Node.size_bytes (Graph.node_at graph s) in
      live := !live - size;
      let ci = cat_of s in
      live_by_cat.(ci) <- live_by_cat.(ci) - size;
      if reuse then give_back holes off size
    end
  in
  for step = 0 to n - 1 do
    let node = Graph.node_at graph step in
    if !bwd_start = None && Node.region node = Node.Backward then
      bwd_start := Some step;
    if (not (Liveness.is_persistent node)) && not (interior step) then begin
      let size = Node.size_bytes node in
      offset_of_slot.(step) <-
        (match inplace_donor step node with
        | -1 ->
          live := !live + size;
          let ci = cat_of step in
          live_by_cat.(ci) <- live_by_cat.(ci) + size;
          take holes size
        | s ->
          transferred.(s) <- true;
          let from_cat = cat_of s and to_cat = cat_of step in
          live_by_cat.(from_cat) <- live_by_cat.(from_cat) - size;
          live_by_cat.(to_cat) <- live_by_cat.(to_cat) + size;
          offset_of_slot.(s))
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
    Liveness.iter_dying_slots liveness step expire
  done;
  let expiry_of_slot = Array.init n (Liveness.last_read liveness) in
  let breakdown_arr = !peak_breakdown in
  breakdown_arr.(Category.index Category.Workspace) <- !peak_ws;
  let breakdown =
    List.map (fun c -> (c, breakdown_arr.(Category.index c))) Category.all
  in
  {
    arena_bytes = persistent + holes.top + !max_ws;
    slab_bytes = holes.top;
    live_peak_bytes = !live_peak;
    peak_step = !peak_step;
    weight_bytes = !weight_bytes;
    input_bytes = !input_bytes;
    stash_bytes = Liveness.stash_bytes liveness graph;
    max_workspace_bytes = !max_ws;
    breakdown;
    node_count = n;
    step_of_backward_start = !bwd_start;
    offset_of_slot;
    expiry_of_slot;
    fusion;
  }

let intervals graph r =
  List.concat
    (List.mapi
       (fun step node ->
         let last_step = r.expiry_of_slot.(step) in
         if last_step < 0 then []
         else [ { Liveness.node; def_step = step; last_step } ])
       (Graph.nodes graph))

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let pp fmt r =
  Format.fprintf fmt
    "arena=%.1f MiB live_peak=%.1f MiB (step %d/%d) weights=%.1f MiB stash=%.1f \
     MiB ws=%.1f MiB"
    (mib r.arena_bytes) (mib r.live_peak_bytes) r.peak_step r.node_count
    (mib r.weight_bytes) (mib r.stash_bytes) (mib r.max_workspace_bytes)
