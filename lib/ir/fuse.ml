(* Elementwise-fusion grouping: the single source of truth shared by the
   memory planner (Echo_exec.Memplan / Liveness), the compiled executor
   (Echo_compiler.Executor) and the cost models that price a fused
   schedule (Echo_gpusim.Costmodel.fused_graph_time for the simulated GPU,
   Echo_core.Autotune's host roofline). All of them must agree on what
   fuses — the planner's predicted arena and the executor's measured
   footprint are asserted equal by the test suite, and the launch
   accounting must describe what actually runs. The plan is a function of
   the graph alone. *)

open Echo_tensor

type group = {
  members : Node.t list;
  root : Node.t;
  externals : Node.t list;
}

type plan = {
  groups : group list;
  interior_tbl : (int, unit) Hashtbl.t;
  by_root : (int, group) Hashtbl.t;
}

let elementwise node =
  match Node.op node with
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.ScaleBy ->
    true
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _
  | Op.Matmul _ | Op.AddBias | Op.Slice _ | Op.PadSlice _ | Op.Concat _
  | Op.Reshape _ | Op.Transpose2d | Op.ReduceSum _ | Op.ReduceMean _
  | Op.BroadcastAxis _ | Op.Softmax | Op.LogSoftmax | Op.CrossEntropy
  | Op.CrossEntropyGrad | Op.Embedding | Op.EmbeddingGrad _ | Op.Conv2d _
  | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

(* A node joins its producer's (first input's) group when both are
   elementwise and same-shaped, live in the same region, the producer is
   consumed only by this node, and the producer is not a graph output (an
   output must materialize, so it can never be a register-resident
   interior). Single-consumer chains keep the analysis conservative: fusing
   them introduces no recomputation, and the only liveness change is that a
   group's external inputs are read at the root's step instead of at each
   member's. *)
let member_of graph node =
  if not (elementwise node) then None
  else begin
    match Node.inputs node with
    | [] -> None
    | producer :: _ ->
      if
        elementwise producer
        && Shape.equal (Node.shape producer) (Node.shape node)
        && Node.region producer = Node.region node
        && (not (Graph.is_output graph (Node.id producer)))
        && List.length (Graph.consumers graph (Node.id producer)) = 1
      then Some producer
      else None
  end

(* Two externals per group — the seed plus one more operand — admits every
   unary chain (any length: unary members add no externals) and the
   one-binary-step patterns LSTM cells are made of, while keeping the fused
   arena exactly equal to the unfused one on real training graphs. Budgets
   of 3+ fuse gradient-accumulation chains whose summands then stay live
   simultaneously, growing the arena several percent for little extra
   launch saving. *)
let default_max_externals = 2

(* Index a raw group list into a plan. [analyse] ends here; the mutation
   harness also enters here directly, with deliberately illegal groups, to
   prove the verifier rejects them. *)
let of_groups groups =
  let interior_tbl = Hashtbl.create 256 in
  let by_root = Hashtbl.create 64 in
  List.iter
    (fun g ->
      Hashtbl.replace by_root (Node.id g.root) g;
      List.iter
        (fun m ->
          if Node.id m <> Node.id g.root then
            Hashtbl.replace interior_tbl (Node.id m) ())
        g.members)
    groups;
  { groups; interior_tbl; by_root }

let analyse graph =
  let schedule = Graph.nodes graph in
  (* producer id -> the member that absorbs it *)
  let succ : (int, Node.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun node ->
      match member_of graph node with
      | Some producer -> Hashtbl.replace succ (Node.id producer) node
      | None -> ())
    schedule;
  (* Split a maximal chain so no segment reads more than
     [default_max_externals] buffers. Fusing holds every external live
     until the root executes, so an unbounded group — a
     gradient-accumulation chain, say — would pin all its summands
     simultaneously and grow the very arena it is meant to shrink. A split
     point materializes the previous segment's root, which the next
     segment then reads as its first external. *)
  let split_chain members =
    let cost ~is_head m =
      if is_head then List.length (Node.inputs m)
      else max 0 (List.length (Node.inputs m) - 1)
    in
    let rec cut acc current n_ext = function
      | [] -> List.rev (List.rev current :: acc)
      | m :: rest ->
        let c = cost ~is_head:(current = []) m in
        if current <> [] && n_ext + c > default_max_externals then
          cut (List.rev current :: acc) [ m ] (cost ~is_head:true m) rest
        else cut acc (m :: current) (n_ext + c) rest
    in
    cut [] [] 0 members
  in
  let group_of_segment segment =
    match segment with
    | [] | [ _ ] -> None (* a segment of one node just compiles normally *)
    | head :: _ ->
      let root = List.nth segment (List.length segment - 1) in
      (* External inputs in evaluation order: the head reads all of its
         inputs; every later member chains on its first input and reads
         the rest from outside the group. *)
      let externals =
        List.concat_map
          (fun m ->
            if Node.id m = Node.id head then Node.inputs m
            else match Node.inputs m with [] -> [] | _ :: rest -> rest)
          segment
      in
      Some { members = segment; root; externals }
  in
  let groups =
    List.concat_map
      (fun head ->
        (* A head starts a chain (someone absorbs it) but is not itself
           absorbed into an earlier producer. *)
        if Hashtbl.mem succ (Node.id head) && member_of graph head = None
        then begin
          let rec walk acc node =
            match Hashtbl.find_opt succ (Node.id node) with
            | Some next -> walk (next :: acc) next
            | None -> List.rev acc
          in
          List.filter_map group_of_segment (split_chain (walk [ head ] head))
        end
        else [])
      schedule
  in
  of_groups groups

let groups p = p.groups
let group_count p = List.length p.groups
let is_interior p id = Hashtbl.mem p.interior_tbl id
let interior_count p = Hashtbl.length p.interior_tbl
let group_of_root p id = Hashtbl.find_opt p.by_root id

let reader_slots p graph =
  let readers = Array.init (Graph.node_count graph) Fun.id in
  List.iter
    (fun g ->
      let root = lazy (Graph.position graph (Node.id g.root)) in
      List.iter
        (fun m ->
          match Graph.position graph (Node.id m) with
          | s -> readers.(s) <- Lazy.force root
          | exception Not_found -> ())
        g.members)
    p.groups;
  readers

let interior_bytes g =
  List.fold_left
    (fun acc m -> if Node.id m <> Node.id g.root then acc + Node.size_bytes m else acc)
    0 g.members

(* ECHO_FUSION=0|off|false|no disables the codegen stage process-wide (the
   runtest rules use it to keep the unfused path green); 1|on|true|yes or
   an unset variable leaves it on. Anything else is rejected loudly — a
   misspelt ECHO_FUSION=fale silently enabling fusion would be
   indistinguishable from the setting having worked. *)
let env_enabled () =
  match Sys.getenv_opt "ECHO_FUSION" with
  | None | Some "" -> true
  | Some s -> (
    match String.lowercase_ascii (String.trim s) with
    | "0" | "off" | "false" | "no" -> false
    | "1" | "on" | "true" | "yes" -> true
    | _ ->
      invalid_arg
        (Printf.sprintf
           "ECHO_FUSION=%S: expected one of 1|on|true|yes (enable) or \
            0|off|false|no (disable)"
           s))

let pp_group fmt g =
  let member_names =
    String.concat " -> "
      (List.map (fun m -> Printf.sprintf "%s#%d" (Node.name m) (Node.id m)) g.members)
  in
  let ext_names =
    String.concat ", "
      (List.map (fun e -> Printf.sprintf "%s#%d" (Node.name e) (Node.id e)) g.externals)
  in
  Format.fprintf fmt "@[<v 2>group (%d members, %d bytes of interiors elided):@,%s@,externals: %s@]"
    (List.length g.members) (interior_bytes g) member_names ext_names

let pp_plan fmt p =
  let total_members =
    List.fold_left (fun a g -> a + List.length g.members) 0 p.groups
  in
  Format.fprintf fmt
    "@[<v>%d fusion group(s), %d member(s), %d interior(s) elided, %d bytes saved@,"
    (group_count p) total_members (interior_count p)
    (List.fold_left (fun a g -> a + interior_bytes g) 0 p.groups);
  List.iter (fun g -> Format.fprintf fmt "%a@," pp_group g) p.groups;
  Format.fprintf fmt "@]"
