open Echo_tensor
open Echo_ir

type spec =
  | Sgd of { lr : float }
  | Momentum of { lr : float; momentum : float }
  | Adam of { lr : float; beta1 : float; beta2 : float; eps : float }

type t = {
  spec : spec;
  velocity : (int, Tensor.t) Hashtbl.t;  (* momentum / Adam first moment *)
  second : (int, Tensor.t) Hashtbl.t;  (* Adam second moment *)
  mutable steps : int;
}

let create spec = { spec; velocity = Hashtbl.create 16; second = Hashtbl.create 16; steps = 0 }

let footprint_kind t =
  match t.spec with
  | Sgd _ -> Echo_exec.Footprint.Sgd
  | Momentum _ -> Echo_exec.Footprint.Momentum
  | Adam _ -> Echo_exec.Footprint.Adam

let state tbl node shape =
  match Hashtbl.find_opt tbl (Node.id node) with
  | Some t -> t
  | None ->
    let t = Tensor.zeros shape in
    Hashtbl.replace tbl (Node.id node) t;
    t

(* The single update rule every entry point shares: one parameter, one
   gradient, state already bumped to the current step count. Writes the
   new value into [dst] (which may be [value] itself) and steps the slots
   in place, through one [Tensor.Into] pass per rule. *)
let update t node value g ~dst =
  match t.spec with
  | Sgd { lr } -> Tensor.Into.sgd ~lr ~param:value ~grad:g ~dst
  | Momentum { lr; momentum } ->
    let velocity = state t.velocity node (Tensor.shape value) in
    Tensor.Into.momentum ~lr ~momentum ~param:value ~grad:g ~velocity ~dst
  | Adam { lr; beta1; beta2; eps } ->
    let m = state t.velocity node (Tensor.shape value) in
    let v = state t.second node (Tensor.shape value) in
    Tensor.Into.adam ~lr ~beta1 ~beta2 ~eps ~step:t.steps ~param:value ~grad:g
      ~m ~v ~dst

(* [params] is never mutated: the new value goes to a fresh tensor. *)
let updated t node value g =
  let dst = Tensor.zeros (Tensor.shape value) in
  update t node value g ~dst;
  dst

let check_arrays name ~param_nodes ~params ~grads =
  let n = Array.length param_nodes in
  if Array.length params <> n || Array.length grads <> n then
    invalid_arg
      (Printf.sprintf "Optimizer.%s: %d parameter nodes, %d values, %d gradients"
         name n (Array.length params) (Array.length grads))

let step_arrays t ~param_nodes ~params ~grads =
  check_arrays "step_arrays" ~param_nodes ~params ~grads;
  t.steps <- t.steps + 1;
  Array.mapi (fun i value -> updated t param_nodes.(i) value grads.(i)) params

let step_in_place t ~param_nodes ~params ~grads =
  check_arrays "step_in_place" ~param_nodes ~params ~grads;
  t.steps <- t.steps + 1;
  Array.iteri
    (fun i value -> update t param_nodes.(i) value grads.(i) ~dst:value)
    params

type snapshot = {
  steps : int;
  velocity : (int * Tensor.t) list;
  second : (int * Tensor.t) list;
}

(* State is keyed by node id in memory, but node ids are process-local:
   snapshots key by parameter *index* so a checkpoint written in one process
   restores correctly in another. The slot tensors are shared, not copied:
   a checkpoint writes them straight from the live state. *)
let snapshot (t : t) ~param_nodes =
  let collect tbl =
    let entries = ref [] in
    Array.iteri
      (fun i node ->
        match Hashtbl.find_opt tbl (Node.id node) with
        | Some tensor -> entries := (i, tensor) :: !entries
        | None -> ())
      param_nodes;
    List.rev !entries
  in
  { steps = t.steps; velocity = collect t.velocity; second = collect t.second }

let restore (t : t) ~param_nodes snap =
  let n = Array.length param_nodes in
  let fill tbl entries =
    Hashtbl.reset tbl;
    List.iter
      (fun (i, tensor) ->
        if i < 0 || i >= n then
          invalid_arg
            (Printf.sprintf
               "Optimizer.restore: slot index %d out of range (%d parameters)"
               i n);
        Hashtbl.replace tbl (Node.id param_nodes.(i)) (Tensor.copy tensor))
      entries
  in
  t.steps <- snap.steps;
  fill t.velocity snap.velocity;
  fill t.second snap.second

let global_norm grads =
  sqrt
    (Array.fold_left
       (fun acc g ->
         let n = Tensor.frobenius g in
         acc +. (n *. n))
       0.0 grads)

(* [Some k] when the global norm exceeds [max_norm]: every gradient is
   then scaled by [k]. *)
let clip_factor ~max_norm grads =
  let norm = global_norm grads in
  if norm <= max_norm then None else Some (max_norm /. norm)

let clip_by_global_norm_arrays ~max_norm grads =
  match clip_factor ~max_norm grads with
  | None -> grads
  | Some k -> Array.map (fun g -> Tensor.scale k g) grads

let clip_by_global_norm_into ~max_norm grads ~dst =
  match clip_factor ~max_norm grads with
  | None -> grads
  | Some k ->
    Array.iteri (fun i g -> Tensor.Into.scale k g ~dst:dst.(i)) grads;
    dst
