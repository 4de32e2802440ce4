open Echo_ir

type interval = { node : Node.t; def_step : int; last_step : int }

(* Everything is by schedule slot: a buffer's interval is keyed by the
   slot that defines it, which is its [def_step]. *)
type t = {
  steps : int;
  last : int array;  (* by slot: the interval's [last_step], -1 for none *)
  node_at : int -> Node.t;  (* the node whose interval a slot defines *)
  slot_of_id : int -> int;  (* node id -> its interval's slot; Not_found *)
  death_start : int array;
  deaths : int array;
      (* slots whose last read is step [k]: [deaths.(death_start.(k))] up
         to [death_start.(k + 1)], in interval order *)
  ordered : interval list Lazy.t;
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

(* The death table, by counting sort of the interval slots [order] on
   their last read; a last read past the schedule (an output's [max_int])
   is no death. *)
let index_deaths ~steps last order =
  let dies s = last.(s) >= 0 && last.(s) < steps in
  let death_start = Array.make (steps + 1) 0 in
  Array.iter
    (fun s ->
      let l = last.(s) in
      if dies s then death_start.(l + 1) <- death_start.(l + 1) + 1)
    order;
  for k = 0 to steps - 1 do
    death_start.(k + 1) <- death_start.(k) + death_start.(k + 1)
  done;
  let deaths = Array.make death_start.(steps) 0 in
  let fill = Array.sub death_start 0 steps in
  Array.iter
    (fun s ->
      let l = last.(s) in
      if dies s then begin
        deaths.(fill.(l)) <- s;
        fill.(l) <- fill.(l) + 1
      end)
    order;
  (death_start, deaths)

let analyse ?fusion graph =
  let steps = Graph.node_count graph in
  (* Under fusion, a group member's reads happen when the group's root
     instruction runs, so every buffer a member consumes must stay live to
     the root's step (the fused kernel reads it there); and interiors —
     the slots whose reader is another slot — never materialize, so they
     get no interval at all. *)
  let reader =
    match fusion with
    | Some f -> Fuse.reader_slots f graph
    | None -> Array.init steps Fun.id
  in
  let last = Array.make steps (-1) in
  let count = ref 0 in
  for s = 0 to steps - 1 do
    if (not (is_persistent (Graph.node_at graph s))) && reader.(s) = s then begin
      incr count;
      last.(s) <-
        (if Graph.is_output_at graph s then max_int
         else Graph.fold_consumers_at graph s (fun acc c -> max acc reader.(c)) s)
    end
  done;
  let order = Array.make !count 0 in
  let k = ref 0 in
  for s = 0 to steps - 1 do
    if last.(s) >= 0 then begin
      order.(!k) <- s;
      incr k
    end
  done;
  let death_start, deaths = index_deaths ~steps last order in
  let node_at = Graph.node_at graph in
  {
    steps;
    last;
    node_at;
    slot_of_id =
      (fun id ->
        let s = Graph.position graph id in
        if last.(s) < 0 then raise Not_found else s);
    death_start;
    deaths;
    ordered =
      lazy
        (Array.fold_right
           (fun s acc ->
             { node = node_at s; def_step = s; last_step = last.(s) } :: acc)
           order []);
  }

(* Rebuild an analysis from explicit intervals. The memory planner frees
   and recycles buffers off whatever [t] it is handed, and the executor
   allocates that plan, so this is the injection point for the race-verify
   mutation harness: a corrupted interval list becomes a real executor
   whose slab reuse genuinely clobbers live data. *)
let of_intervals ~steps intervals =
  let last = Array.make steps (-1) in
  let by_slot = Hashtbl.create 1024 and by_id = Hashtbl.create 1024 in
  List.iter
    (fun itv ->
      last.(itv.def_step) <- itv.last_step;
      Hashtbl.replace by_slot itv.def_step itv.node;
      Hashtbl.replace by_id (Node.id itv.node) itv.def_step)
    intervals;
  let order = Array.of_list (List.map (fun itv -> itv.def_step) intervals) in
  let death_start, deaths = index_deaths ~steps last order in
  {
    steps;
    last;
    node_at = Hashtbl.find by_slot;
    slot_of_id = Hashtbl.find by_id;
    death_start;
    deaths;
    ordered = Lazy.from_val intervals;
  }

let intervals t = Lazy.force t.ordered

let interval t id =
  let s = t.slot_of_id id in
  { node = t.node_at s; def_step = s; last_step = t.last.(s) }

let step_count t = t.steps
let last_read t s = t.last.(s)

let iter_dying_slots t step f =
  if step >= 0 && step < t.steps then
  for k = t.death_start.(step) to t.death_start.(step + 1) - 1 do
    f t.deaths.(k)
  done

let dying_at t step =
  let l = ref [] in
  iter_dying_slots t step (fun s -> l := t.node_at s :: !l);
  !l

let crosses_into_backward _t graph id =
  let node = Graph.find graph id in
  Node.region node = Node.Forward
  && List.exists
       (fun c -> Node.region c = Node.Backward)
       (Graph.consumers graph id)

let stash_bytes t graph =
  let total = ref 0 in
  Array.iteri
    (fun s last ->
      if last >= 0 then begin
        let node = Graph.node_at graph s in
        if
          Node.region node = Node.Forward
          && Graph.fold_consumers_at graph s
               (fun acc c ->
                 acc || Node.region (Graph.node_at graph c) = Node.Backward)
               false
        then total := !total + Node.size_bytes node
      end)
    t.last;
  !total
