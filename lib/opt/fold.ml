open Echo_tensor
open Echo_ir

let is_zeros n =
  match Node.op n with
  | Op.Zeros | Op.ConstFill 0.0 -> true
  | _ -> false

(* Rewrite one node given already-simplified inputs. [None] = keep as-is. *)
let simplify node inputs =
  let same_region n = Node.region n = Node.region node in
  match (Node.op node, inputs) with
  | Op.Scale 1.0, [ x ] | Op.AddScalar 0.0, [ x ] | Op.PowConst 1.0, [ x ] ->
    Some x
  | Op.Scale 0.0, [ _ ] ->
    Some (Node.zeros ~region:(Node.region node) (Node.shape node))
  | Op.Mul, [ x; y ] when is_zeros x || is_zeros y ->
    Some (Node.zeros ~region:(Node.region node) (Node.shape node))
  | Op.Add, [ x; y ] when is_zeros y -> Some x
  | Op.Add, [ x; y ] when is_zeros x -> Some y
  | Op.Sub, [ x; y ] when is_zeros y -> Some x
  | Op.Neg, [ x ] -> (
    match (Node.op x, Node.inputs x) with
    | Op.Neg, [ inner ] when same_region x -> Some inner
    | _ -> None)
  | Op.Scale a, [ x ] -> (
    match (Node.op x, Node.inputs x) with
    | Op.Scale b, [ inner ] when same_region x ->
      Some (Node.scale ~region:(Node.region node) (a *. b) inner)
    | _ -> None)
  | Op.Reshape target, [ x ] when Shape.equal target (Node.shape x) -> Some x
  | Op.Transpose2d, [ x ] -> (
    match (Node.op x, Node.inputs x) with
    | Op.Transpose2d, [ inner ] when same_region x -> Some inner
    | _ -> None)
  | Op.BroadcastAxis { n = 1; _ }, [ x ] -> Some x
  | _ -> None

let run graph =
  let repr : (int, Node.t) Hashtbl.t = Hashtbl.create 1024 in
  let resolve n =
    match Hashtbl.find_opt repr (Node.id n) with Some r -> r | None -> n
  in
  List.iter
    (fun n ->
      let inputs = List.map resolve (Node.inputs n) in
      match simplify n inputs with
      | Some replacement -> Hashtbl.replace repr (Node.id n) replacement
      | None ->
        let changed =
          List.exists2 (fun a b -> not (Node.equal a b)) (Node.inputs n) inputs
        in
        if changed then
          Hashtbl.replace repr (Node.id n) (Node.clone_with_inputs n inputs))
    (Graph.nodes graph);
  (* Nothing rewritten: hand back the input graph itself, so a confirming
     fixpoint pass walks the graph without rebuilding it. *)
  if Hashtbl.length repr = 0 then graph
  else
    (* Outputs must survive even when folded away to an existing node: wrap
       in nothing — Graph outputs may alias interior nodes, which is fine. *)
    Graph.create (List.map resolve (Graph.outputs graph))
