open Echo_ir

type slot = {
  node_id : int;
  offset : int;
  size : int;
  def_step : int;
  last_step : int;
}

type t = { slots : slot list; arena : int }

let of_plan graph (r : Memplan.report) =
  let slots =
    List.concat
      (List.mapi
         (fun step node ->
           let offset = r.Memplan.offset_of_slot.(step) in
           if offset < 0 then []
           else
             [
               {
                 node_id = Node.id node;
                 offset;
                 size = Node.size_bytes node;
                 def_step = step;
                 last_step = r.Memplan.expiry_of_slot.(step);
               };
             ])
         (Graph.nodes graph))
  in
  { slots; arena = r.Memplan.slab_bytes }

let arena_size t = t.arena
let slots t = t.slots

(* Reconstruct an assignment from raw slots. The mutation harness uses this
   to seed deliberate corruptions; [check] treats the result like any other
   plan. *)
let of_slots ~arena slots = { slots; arena }

let total_with_persistent t graph =
  let persistent, max_ws =
    List.fold_left
      (fun (p, w) n ->
        let p =
          match Node.op n with
          | Op.Variable | Op.Placeholder -> p + Node.size_bytes n
          | _ -> p
        in
        (p, max w (Workspace.bytes n)))
      (0, 0) (Graph.nodes graph)
  in
  t.arena + persistent + max_ws

(* Soundness of the static plan, collect-all: arena-escape and address
   overlap of live-overlapping slots each become one diagnostic. *)
let check t =
  let report = Echo_diag.Report.create () in
  let err ~nodes fmt =
    Echo_diag.Report.errorf report ~check:"assign" ~stage:"assign" ~nodes fmt
  in
  let overlaps a b =
    a.offset < b.offset + b.size && b.offset < a.offset + a.size
  in
  let concurrent a b = a.def_step <= b.last_step && b.def_step <= a.last_step in
  let handover a b =
    a.offset = b.offset && a.size = b.size
    && (b.def_step = a.last_step || a.def_step = b.last_step)
  in
  let arr = Array.of_list t.slots in
  Array.iteri
    (fun i a ->
      if a.offset < 0 || a.offset + a.size > t.arena then
        err ~nodes:[ a.node_id ]
          "slot of node #%d ([%d, %d)) escapes the %d-byte arena" a.node_id
          a.offset (a.offset + a.size) t.arena;
      for j = i + 1 to Array.length arr - 1 do
        let b = arr.(j) in
        if concurrent a b && overlaps a b && not (handover a b) then
          err
            ~nodes:[ a.node_id; b.node_id ]
            "slots of nodes #%d ([%d, %d), steps %d..%d) and #%d ([%d, %d), \
             steps %d..%d) are live simultaneously and overlap in address \
             space"
            a.node_id a.offset (a.offset + a.size) a.def_step a.last_step
            b.node_id b.offset (b.offset + b.size) b.def_step b.last_step
      done)
    arr;
  report

let validate t =
  match Echo_diag.Report.errors (check t) with
  | [] -> ()
  | first :: _ ->
    failwith (Printf.sprintf "Assign.validate: %s" first.Echo_diag.message)
