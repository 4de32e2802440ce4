(* Node ids come off one counter, so within a graph they are nearly
   consecutive: the identity spreads them over the buckets evenly, without
   [Hashtbl.hash]'s C call. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

type t = {
  outputs : Node.t list;
  schedule : Node.t list;  (* all reachable nodes, deterministic topo order *)
  members : Node.t array;  (* [schedule] as an array *)
  position : int Itbl.t;  (* node id -> its schedule index *)
  consumers : Node.t list array;
      (* by schedule index: reverse edges, in schedule order *)
  in_start : int array;
  in_slots : int array;
      (* by slot, flat: slot [s]'s inputs are [in_slots.(in_start.(s))] up
         to [in_start.(s + 1)], in [Node.inputs] order *)
  out_start : int array;
  out_slots : int array;  (* the same edges reversed, in schedule order *)
  output_at : Bytes.t;  (* by slot: '\001' for a graph output *)
}

(* Graphs built so far, over every domain. *)
let created = Atomic.make 0
let created_count () = Atomic.get created

(* Binary min-heap of member indices for the ready set of Kahn's walk. *)
let heap_push heap size less j =
  let i = ref !size in
  incr size;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less j heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    heap.(!i) <- heap.(parent);
    i := parent
  done;
  heap.(!i) <- j

let heap_pop heap size less =
  let top = heap.(0) in
  decr size;
  let last = heap.(!size) in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= !size then settled := true
    else begin
      let r = l + 1 in
      let c = if r < !size && less heap.(r) heap.(l) then r else l in
      if less heap.(c) last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else settled := true
    end
  done;
  heap.(!i) <- last;
  top

(* Program-order schedule: Kahn's algorithm picking the ready node with the
   smallest (hint, id). Hints default to creation ids, so an unmodified
   training graph executes exactly in the order the model and the autodiff
   engine emitted it — per-step gradient aggregation interleaves with the
   gradient chain instead of piling up at the end. Graph rewrites assign
   recomputation clones a hint just below their first consumer's, so clones
   run just-in-time inside the backward pass.

   One linear pass over arrays. The nodes reachable from the outputs are
   indexed once (iteratively: unrolled graphs far exceed the stack limit)
   and their input edges laid out flat, one entry per input slot. The ready
   set is a binary heap of indices ordered by [Float.compare] on the hint,
   then by id; ids are unique, so no two keys tie and the heap pops exactly
   the order of a sorted set of (hint, id) pairs. The walk renumbers the
   nodes in pop order, so the id table and the edges it leaves are by
   schedule index. *)
let create outputs =
  if outputs = [] then invalid_arg "Graph.create: empty output list";
  Atomic.incr created;
  let position = Itbl.create 1024 in
  let found = ref [] and count = ref 0 and edges = ref 0 in
  let stack = ref [] in
  let visit n =
    if not (Itbl.mem position (Node.id n)) then begin
      Itbl.add position (Node.id n) !count;
      incr count;
      edges := !edges + List.length (Node.inputs n);
      found := n :: !found;
      stack := n :: !stack
    end
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      List.iter visit (Node.inputs n);
      drain ()
  in
  List.iter visit outputs;
  drain ();
  let count = !count in
  let found =
    let a = Array.make count (List.hd outputs) in
    List.iteri (fun k n -> a.(count - 1 - k) <- n) !found;
    a
  in
  (* Input slots, flat: node [j]'s inputs are [inputs.(in_start.(j))]
     up to [in_start.(j + 1)]; [uses.(u)] counts the slots reading [u]. *)
  let in_start = Array.make (count + 1) 0 in
  let inputs = Array.make !edges 0 in
  let uses = Array.make count 0 in
  let e = ref 0 in
  Array.iteri
    (fun j n ->
      in_start.(j) <- !e;
      List.iter
        (fun i ->
          let u = Itbl.find position (Node.id i) in
          inputs.(!e) <- u;
          uses.(u) <- uses.(u) + 1;
          incr e)
        (Node.inputs n))
    found;
  in_start.(count) <- !e;
  (* The same edges reversed: the slots reading [u] are
     [readers.(out_start.(u))] up to [out_start.(u + 1)]. *)
  let out_start = Array.make (count + 1) 0 in
  for u = 0 to count - 1 do
    out_start.(u + 1) <- out_start.(u) + uses.(u)
  done;
  let readers = Array.make !edges 0 in
  let fill = Array.sub out_start 0 count in
  for j = 0 to count - 1 do
    for s = in_start.(j) to in_start.(j + 1) - 1 do
      let u = inputs.(s) in
      readers.(fill.(u)) <- j;
      fill.(u) <- fill.(u) + 1
    done
  done;
  let hint = Array.map Node.hint found in
  let id = Array.map Node.id found in
  let less a b =
    let c = Float.compare hint.(a) hint.(b) in
    c < 0 || (c = 0 && id.(a) < id.(b))
  in
  let heap = Array.make count 0 and size = ref 0 in
  let pending = Array.make count 0 in
  for j = 0 to count - 1 do
    pending.(j) <- in_start.(j + 1) - in_start.(j);
    if pending.(j) = 0 then heap_push heap size less j
  done;
  (* [rank.(j)] is node [j]'s schedule index; its inputs are ranked
     before it is popped, so its input slots are laid out as it is. *)
  let members = Array.make count (List.hd outputs) in
  let rank = Array.make count 0 in
  let slot_in_start = Array.make (count + 1) 0 in
  let in_slots = Array.make !edges 0 in
  let slot_out_start = Array.make (count + 1) 0 in
  let placed = ref 0 and laid = ref 0 in
  while !size > 0 do
    let j = heap_pop heap size less in
    let p = !placed in
    members.(p) <- found.(j);
    rank.(j) <- p;
    slot_in_start.(p) <- !laid;
    (* the consumer count for now, summed into offsets below *)
    slot_out_start.(p + 1) <- uses.(j);
    incr placed;
    for s = in_start.(j) to in_start.(j + 1) - 1 do
      in_slots.(!laid) <- rank.(inputs.(s));
      incr laid
    done;
    for s = out_start.(j) to out_start.(j + 1) - 1 do
      let c = readers.(s) in
      pending.(c) <- pending.(c) - 1;
      if pending.(c) = 0 then heap_push heap size less c
    done
  done;
  if !placed <> count then failwith "Graph: cycle detected";
  slot_in_start.(count) <- !laid;
  Itbl.filter_map_inplace (fun _ j -> Some rank.(j)) position;
  (* Reverse edges by slot: consumers land in schedule order, one entry
     per input slot that reads the producer. *)
  for u = 0 to count - 1 do
    slot_out_start.(u + 1) <- slot_out_start.(u) + slot_out_start.(u + 1)
  done;
  let out_slots = Array.make !edges 0 in
  let fill = Array.sub slot_out_start 0 count in
  for p = 0 to count - 1 do
    for s = slot_in_start.(p) to slot_in_start.(p + 1) - 1 do
      let u = in_slots.(s) in
      out_slots.(fill.(u)) <- p;
      fill.(u) <- fill.(u) + 1
    done
  done;
  let consumers = Array.make count [] in
  for u = 0 to count - 1 do
    let l = ref [] in
    for s = slot_out_start.(u + 1) - 1 downto slot_out_start.(u) do
      l := members.(out_slots.(s)) :: !l
    done;
    consumers.(u) <- !l
  done;
  let output_at = Bytes.make count '\000' in
  List.iter
    (fun o -> Bytes.set output_at (Itbl.find position (Node.id o)) '\001')
    outputs;
  {
    outputs;
    schedule = Array.to_list members;
    members;
    position;
    consumers;
    in_start = slot_in_start;
    in_slots;
    out_start = slot_out_start;
    out_slots;
    output_at;
  }

let outputs g = g.outputs
let nodes g = g.schedule
let node_count g = Array.length g.members
let mem g id = Itbl.mem g.position id
let find g id = g.members.(Itbl.find g.position id)

let consumers g id =
  match Itbl.find_opt g.position id with
  | Some u -> g.consumers.(u)
  | None -> []

let is_output g id =
  match Itbl.find_opt g.position id with
  | Some s -> Bytes.get g.output_at s <> '\000'
  | None -> false

let position g id = Itbl.find g.position id
let node_at g s = g.members.(s)
let is_output_at g s = Bytes.get g.output_at s <> '\000'

let fold_inputs_at g s f acc =
  let acc = ref acc in
  for k = g.in_start.(s) to g.in_start.(s + 1) - 1 do
    acc := f !acc g.in_slots.(k)
  done;
  !acc

let fold_consumers_at g s f acc =
  let acc = ref acc in
  for k = g.out_start.(s) to g.out_start.(s + 1) - 1 do
    acc := f !acc g.out_slots.(k)
  done;
  !acc

let forward_nodes g =
  List.filter (fun n -> Node.region n = Node.Forward) g.schedule

let backward_nodes g =
  List.filter (fun n -> Node.region n = Node.Backward) g.schedule

(* Structural validation, collect-all: every violation becomes one
   diagnostic instead of the walk stopping at the first. *)
let check g =
  let report = Echo_diag.Report.create () in
  let err ~nodes fmt =
    Echo_diag.Report.errorf report ~check:"graph" ~stage:"graph" ~nodes fmt
  in
  let describe n =
    Printf.sprintf "%s %s (#%d)" (Op.to_string (Node.op n)) (Node.name n)
      (Node.id n)
  in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen (Node.id n) then
        err ~nodes:[ Node.id n ] "duplicate id: %s appears twice in the schedule"
          (describe n);
      List.iter
        (fun i ->
          if not (Hashtbl.mem seen (Node.id i)) then
            err
              ~nodes:[ Node.id n; Node.id i ]
              "%s is scheduled before its input %s" (describe n) (describe i))
        (Node.inputs n);
      Hashtbl.add seen (Node.id n) ())
    g.schedule;
  List.iter
    (fun o ->
      if not (Hashtbl.mem seen (Node.id o)) then
        err ~nodes:[ Node.id o ] "output %s is not in the schedule" (describe o))
    g.outputs;
  report

let validate g =
  match Echo_diag.Report.errors (check g) with
  | [] -> ()
  | first :: _ ->
    failwith (Printf.sprintf "Graph.validate: %s" first.Echo_diag.message)

let total_output_bytes g =
  List.fold_left (fun acc n -> acc + Node.size_bytes n) 0 g.schedule

(* Decimal digits of a non-negative int (a dimension or a slot), written
   without a string. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Canonical structural digest. Raw node ids are process-local (a global
   atomic counter), so they must never feed anything content-addressed; the
   fingerprint instead renames every node to its schedule position — a pure
   function of the graph's structure and relative hint order, identical for
   every fresh build of the same model in any process. Per node it hashes
   the operator's exact key ([Op.key]: every attribute, floats by their
   bits, so [Scale 0.5] and [Scale 0.5000001] differ), output shape, region
   and canonical input ids; inputs of commutative operators are sorted so
   [a + b] and [b + a] fingerprint alike. The names of feedable leaves
   (placeholders and variables) are included: they are resolved by name
   when a cached executable serves a structurally identical graph from a
   different build, so two graphs may only share a fingerprint when that
   resolution works. Every other name is excluded — interior names are
   cosmetic, and constant leaves ([Zeros], [ConstFill], [DropoutMask]) are
   named after their process-local id when unnamed.

   The canonical input ids are the per-slot input edges [create] laid out,
   and every node's line goes straight into one buffer. *)
let fingerprint g =
  let buf = Buffer.create (64 * Array.length g.members) in
  Array.iteri
    (fun s n ->
      let op = Node.op n in
      Buffer.add_string buf (Op.key op);
      Buffer.add_string buf "|[";
      let shape = Node.shape n in
      Array.iteri
        (fun d x ->
          if d > 0 then Buffer.add_char buf 'x';
          add_nat buf x)
        shape;
      Buffer.add_string buf
        (match Node.region n with Node.Forward -> "]|f" | Node.Backward -> "]|b");
      (match op with
      | Op.Placeholder | Op.Variable ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (Node.name n)
      | _ -> ());
      let lo = g.in_start.(s) and hi = g.in_start.(s + 1) in
      (match op with
      | (Op.Add | Op.Mul) when hi - lo = 2 ->
        (* Only ops whose value is invariant under input permutation. *)
        let a = g.in_slots.(lo) and b = g.in_slots.(lo + 1) in
        Buffer.add_char buf ',';
        add_nat buf (min a b);
        Buffer.add_char buf ',';
        add_nat buf (max a b)
      | _ ->
        for k = lo to hi - 1 do
          Buffer.add_char buf ',';
          add_nat buf g.in_slots.(k)
        done);
      Buffer.add_char buf '\n')
    g.members;
  Buffer.add_string buf "outputs";
  List.iter
    (fun o ->
      Buffer.add_char buf ' ';
      add_nat buf (Itbl.find g.position (Node.id o)))
    g.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_stats fmt g =
  let fwd = List.length (forward_nodes g) and bwd = List.length (backward_nodes g) in
  Format.fprintf fmt "nodes=%d (fwd=%d bwd=%d) outputs=%d total_bytes=%d"
    (node_count g) fwd bwd (List.length g.outputs) (total_output_bytes g)

let to_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph G {\n  rankdir=TB;\n";
  List.iter
    (fun n ->
      let color = match Node.region n with Node.Forward -> "lightblue" | Node.Backward -> "lightsalmon" in
      Buffer.add_string buf
        (Printf.sprintf
           "  n%d [label=\"%s\\n%s %s\", style=filled, fillcolor=%s];\n"
           (Node.id n) (Node.name n)
           (Op.to_string (Node.op n))
           (Echo_tensor.Shape.to_string (Node.shape n))
           color);
      List.iter
        (fun i ->
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" (Node.id i) (Node.id n)))
        (Node.inputs n))
    g.schedule;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
