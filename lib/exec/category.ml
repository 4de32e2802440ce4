(* Footprint categories used by the memory planner's breakdown reports. *)

open Echo_ir

type t =
  | Weights  (* trainable parameters *)
  | Inputs  (* mini-batch data and labels *)
  | Feature_maps  (* forward activations stashed for the backward pass *)
  | Fwd_temporaries  (* forward buffers that die within the forward pass *)
  | Gradients  (* parameter-gradient outputs *)
  | Bwd_temporaries  (* backward chain buffers, incl. recomputation clones *)
  | Workspace  (* scratch space for kernels (im2col etc.) *)

let all =
  [ Weights; Inputs; Feature_maps; Fwd_temporaries; Gradients; Bwd_temporaries; Workspace ]

let to_string = function
  | Weights -> "weights"
  | Inputs -> "inputs"
  | Feature_maps -> "feature maps"
  | Fwd_temporaries -> "fwd temporaries"
  | Gradients -> "gradients"
  | Bwd_temporaries -> "bwd temporaries"
  | Workspace -> "workspace"

let index = function
  | Weights -> 0
  | Inputs -> 1
  | Feature_maps -> 2
  | Fwd_temporaries -> 3
  | Gradients -> 4
  | Bwd_temporaries -> 5
  | Workspace -> 6

let count = 7

(* Classify the output buffer of the node at a schedule slot. [graph]
   supplies consumer regions. *)
let of_slot graph s =
  let node = Graph.node_at graph s in
  match Node.op node with
  | Op.Variable -> Weights
  | Op.Placeholder -> Inputs
  | _ -> (
    match Node.region node with
    | Node.Backward ->
      if Graph.is_output_at graph s then Gradients else Bwd_temporaries
    | Node.Forward ->
      let stashed =
        Graph.fold_consumers_at graph s
          (fun acc c ->
            acc || Node.region (Graph.node_at graph c) = Node.Backward)
          false
      in
      if stashed then Feature_maps else Fwd_temporaries)
