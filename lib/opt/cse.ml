open Echo_ir

(* Structural key: operator (every attribute exact, floats by their bits —
   [Op.to_string]'s [%g] would merge [Scale 0.5] with [Scale 0.5000001]),
   output shape (leaves such as [Zeros] and [DropoutMask] carry their shape
   outside the operator, so [Zeros [4]] and [Zeros [2x3]] differ only
   here), exact input identities, and region.

   These keys embed raw [Node.id]s, which come off a process-local counter:
   they are only meaningful within one [rebuild] walk and MUST NOT feed
   anything content-addressed (compile caches key on the canonical
   [Graph.fingerprint] instead, which renames nodes to schedule
   positions). *)
let key op shape inputs region =
  ( Op.key op,
    shape,
    List.map Node.id inputs,
    match region with Node.Forward -> 0 | Node.Backward -> 1 )

let can_unify op =
  match op with
  | Op.Placeholder | Op.Variable -> false  (* distinct external values *)
  | _ -> Op.is_pure op

let rebuild graph =
  let repr : (int, Node.t) Hashtbl.t = Hashtbl.create 1024 in
  let seen : (string * Echo_tensor.Shape.t * int list * int, Node.t) Hashtbl.t =
    Hashtbl.create 1024
  in
  let removed = ref 0 in
  let resolve n =
    match Hashtbl.find_opt repr (Node.id n) with Some r -> r | None -> n
  in
  List.iter
    (fun n ->
      let inputs = List.map resolve (Node.inputs n) in
      let changed =
        List.exists2 (fun a b -> not (Node.equal a b)) (Node.inputs n) inputs
      in
      let node = if changed then Node.clone_with_inputs n inputs else n in
      let final =
        if can_unify (Node.op n) then begin
          let k = key (Node.op node) (Node.shape node) inputs (Node.region node) in
          match Hashtbl.find_opt seen k with
          | Some existing ->
            incr removed;
            existing
          | None ->
            Hashtbl.replace seen k node;
            node
        end
        else node
      in
      if not (Node.equal final n) then Hashtbl.replace repr (Node.id n) final)
    (Graph.nodes graph);
  let rebuilt =
    (* Nothing merged and nothing rewired: the input graph stands. *)
    if Hashtbl.length repr = 0 then graph
    else Graph.create (List.map resolve (Graph.outputs graph))
  in
  (rebuilt, !removed)

let run graph = fst (rebuild graph)
let count_redundant graph = snd (rebuild graph)
