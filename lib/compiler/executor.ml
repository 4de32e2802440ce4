open Echo_tensor
open Echo_ir
open Echo_exec
module Sanitize = Echo_analysis.Sanitize

type t = {
  graph : Graph.t;
  runtime : Parallel.t;
  nodes : Node.t array;  (** the frozen schedule; slot = index *)
  instrs : (unit -> unit) array;
  values : Tensor.t array;
  slot_of_id : (int, int) Hashtbl.t;
  persistent : (Node.t * int) array;  (** (node, slot), schedule order *)
  is_persistent_slot : bool array;
  fed : bool array;  (** indexed by slot; meaningful for persistent slots *)
  mutable all_fed : bool;
  output_slots : int array;
  outs : Tensor.t array;
  plan : Memplan.report;
  allocated_bytes : int;
      (** device bytes of what {!compile} allocated, tallied in its own
          walk: persistent values, the slab, the largest workspace *)
  mutable pending_flips : (int * int * int) list;
      (** (slot, index, bit) single-event upsets to apply during the next
          {!run}, right after the slot's instruction writes; cleared after
          that run *)
  sanitize : Sanitize.t option;
      (** shadow-memory sanitizer driven around every instruction of every
          {!run}; [None] when compiled with the sanitizer off *)
}

exception Budget_exceeded of { requested_bytes : int; budget_bytes : int }

let () =
  Printexc.register_printer (function
    | Budget_exceeded { requested_bytes; budget_bytes } ->
      Some
        (Printf.sprintf
           "Executor.Budget_exceeded { requested_bytes = %d; budget_bytes = \
            %d }"
           requested_bytes budget_bytes)
    | _ -> None)

let nop () = ()

let compile ?budget_bytes ?runtime ?plan ?sanitize graph =
  let runtime =
    match runtime with Some r -> r | None -> Parallel.default ()
  in
  let plan = match plan with Some p -> p | None -> Memplan.plan graph in
  let fusion = plan.Memplan.fusion in
  let sanitize_mode =
    match sanitize with Some m -> m | None -> Sanitize.env_mode ()
  in
  (* Fused interiors get no range, no tensor and no instruction; a group
     root compiles to one fused instruction over the group's external
     inputs. Both follow the same [Fuse.plan] the planner used. *)
  let group_of_root node =
    match fusion with
    | Some f -> Fuse.group_of_root f (Node.id node)
    | None -> None
  in
  let nodes = Array.of_list (Graph.nodes graph) in
  let n = Array.length nodes in
  let slot_of_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i node -> Hashtbl.replace slot_of_id (Node.id node) i) nodes;
  let values = Array.make n (Tensor.scalar 0.0) in
  let is_persistent_slot = Array.make n false in
  let persistent = ref [] in
  (* The plan decides every slot's range in one slab; the executor only
     allocates what it says, so the footprint IS the plan's arena. Ranges
     are bytes at the device's [Node.elem_bytes] per element; the slab
     holds one float per element. *)
  let offset_of_slot = plan.Memplan.offset_of_slot in
  let elem_of_bytes b = b / Node.elem_bytes in
  (* Walk the slots in schedule order, tracking the persistent bytes fed
     so far and the slab's high-water mark. The budget is enforced here,
     before the slab exists, so the raise carries the running total at the
     slot where it first crosses the ceiling — a simulated device OOM, not
     a post-hoc check. *)
  let persistent_bytes = ref 0 and high_water = ref 0 and max_ws = ref 0 in
  Array.iteri
    (fun step node ->
      let ws = Workspace.bytes node in
      if ws > !max_ws then max_ws := ws;
      if Liveness.is_persistent node then begin
        is_persistent_slot.(step) <- true;
        persistent := (node, step) :: !persistent;
        persistent_bytes := !persistent_bytes + Node.size_bytes node
      end
      else if offset_of_slot.(step) >= 0 then
        high_water :=
          max !high_water (offset_of_slot.(step) + Node.size_bytes node);
      match budget_bytes with
      | Some budget when !persistent_bytes + !high_water + !max_ws > budget ->
        raise
          (Budget_exceeded
             {
               requested_bytes = !persistent_bytes + !high_water + !max_ws;
               budget_bytes = budget;
             })
      | Some _ | None -> ())
    nodes;
  let slab = Array.make (elem_of_bytes plan.Memplan.slab_bytes) 0.0 in
  Array.iteri
    (fun step node ->
      let off = offset_of_slot.(step) in
      if off >= 0 then
        values.(step) <-
          Tensor.view slab ~off:(elem_of_bytes off) (Node.shape node))
    nodes;
  (* A slot whose range no other slot ever overlaps keeps its value across
     steps and runs: with the slots sorted by offset, a range overlaps
     another exactly when an earlier one reaches past its start or the
     next one starts before its end. A constant node owning such a range
     is materialised once at compile time and skipped at run time. *)
  let sole_tenant = Array.make n false in
  (let placed =
     List.filter (fun s -> offset_of_slot.(s) >= 0) (List.init n Fun.id)
     |> Array.of_list
   in
   Array.stable_sort
     (fun a b -> compare offset_of_slot.(a) offset_of_slot.(b))
     placed;
   let reach = ref 0 in
   Array.iteri
     (fun k s ->
       let lo = offset_of_slot.(s) in
       let hi = lo + Node.size_bytes nodes.(s) in
       sole_tenant.(s) <-
         (k = 0 || !reach <= lo)
         && (k = Array.length placed - 1
            || offset_of_slot.(placed.(k + 1)) >= hi);
       reach := max !reach hi)
     placed);
  (* Compile each node to one closure over its input slots and its fixed
     destination tensor; [const] when the node may run once, at compile
     time (a sole tenant). *)
  let instrs = Array.make n nop in
  let build node dst ~const =
    let slots =
      Array.of_list
        (List.map
           (fun i -> Hashtbl.find slot_of_id (Node.id i))
           (Node.inputs node))
    in
    let x () = values.(Array.unsafe_get slots 0) in
    let y () = values.(Array.unsafe_get slots 1) in
    let module I = Tensor.Into in
    match Node.op node with
    | Op.Placeholder | Op.Variable -> assert false
    | Op.Zeros ->
      if const then begin
        I.fill ~dst 0.0;
        nop
      end
      else fun () -> I.fill ~dst 0.0
    | Op.ConstFill v ->
      if const then begin
        I.fill ~dst v;
        nop
      end
      else fun () -> I.fill ~dst v
    | Op.DropoutMask { p; seed } ->
      let mask = Tensor.dropout_mask ~seed ~p (Node.shape node) in
      if const then begin
        I.blit ~src:mask ~dst;
        nop
      end
      else fun () -> I.blit ~src:mask ~dst
    | Op.Neg -> fun () -> I.neg ~runtime (x ()) ~dst
    | Op.Scale k -> fun () -> I.scale ~runtime k (x ()) ~dst
    | Op.AddScalar k -> fun () -> I.add_scalar ~runtime k (x ()) ~dst
    | Op.PowConst p -> fun () -> I.pow_const ~runtime p (x ()) ~dst
    | Op.Sigmoid -> fun () -> I.sigmoid ~runtime (x ()) ~dst
    | Op.Tanh -> fun () -> I.tanh_ ~runtime (x ()) ~dst
    | Op.Relu -> fun () -> I.relu ~runtime (x ()) ~dst
    | Op.Exp -> fun () -> I.exp_ ~runtime (x ()) ~dst
    | Op.Log -> fun () -> I.log_ ~runtime (x ()) ~dst
    | Op.Sqrt -> fun () -> I.sqrt_ ~runtime (x ()) ~dst
    | Op.Sq -> fun () -> I.sq ~runtime (x ()) ~dst
    | Op.Recip -> fun () -> I.recip ~runtime (x ()) ~dst
    | Op.Sign -> fun () -> I.sign ~runtime (x ()) ~dst
    | Op.Add -> fun () -> I.add ~runtime (x ()) (y ()) ~dst
    | Op.Sub -> fun () -> I.sub ~runtime (x ()) (y ()) ~dst
    | Op.Mul -> fun () -> I.mul ~runtime (x ()) (y ()) ~dst
    | Op.Div -> fun () -> I.div ~runtime (x ()) (y ()) ~dst
    | Op.Matmul { trans_a; trans_b } ->
      fun () -> I.matmul ~runtime ~trans_a ~trans_b (x ()) (y ()) ~dst
    | Op.AddBias -> fun () -> I.add_bias ~runtime (x ()) (y ()) ~dst
    | Op.ScaleBy -> fun () -> I.scale_by ~runtime (x ()) (y ()) ~dst
    | Op.Slice { axis; lo; hi } -> fun () -> I.slice ~axis ~lo ~hi (x ()) ~dst
    | Op.PadSlice { axis; lo; full } ->
      fun () -> I.pad_slice ~axis ~lo ~full (x ()) ~dst
    | Op.Concat { axis } ->
      fun () ->
        I.concat ~axis
          (Array.to_list (Array.map (fun s -> values.(s)) slots))
          ~dst
    | Op.Reshape _ -> fun () -> I.blit ~src:(x ()) ~dst
    | Op.Transpose2d -> fun () -> I.transpose2d ~runtime (x ()) ~dst
    | Op.ReduceSum { axis; keepdims } ->
      fun () -> I.reduce_sum ~runtime ~axis ~keepdims (x ()) ~dst
    | Op.ReduceMean { axis; keepdims } ->
      fun () -> I.reduce_mean ~runtime ~axis ~keepdims (x ()) ~dst
    | Op.BroadcastAxis { axis; n } ->
      fun () -> I.broadcast_axis ~axis ~n (x ()) ~dst
    | Op.Softmax -> fun () -> I.softmax ~runtime (x ()) ~dst
    | Op.LogSoftmax -> fun () -> I.log_softmax ~runtime (x ()) ~dst
    | Op.CrossEntropy ->
      fun () -> I.cross_entropy ~logits:(x ()) ~labels:(y ()) ~dst
    | Op.CrossEntropyGrad ->
      fun () -> I.cross_entropy_grad ~runtime ~logits:(x ()) ~labels:(y ()) ~dst ()
    | Op.Embedding ->
      fun () -> I.embedding ~runtime ~table:(x ()) ~ids:(y ()) ~dst ()
    | Op.EmbeddingGrad _ ->
      fun () -> I.embedding_grad ~runtime ~ids:(x ()) ~grad_out:(y ()) ~dst ()
    | Op.Conv2d { stride; pad } ->
      fun () -> I.conv2d ~stride ~pad ~input:(x ()) ~kernel:(y ()) ~dst
    | Op.Conv2dGradInput { stride; pad; _ } ->
      fun () ->
        I.conv2d_grad_input ~stride ~pad ~kernel:(x ()) ~grad_out:(y ()) ~dst
    | Op.Conv2dGradKernel { stride; pad; _ } ->
      fun () ->
        I.conv2d_grad_kernel ~stride ~pad ~input:(x ()) ~grad_out:(y ()) ~dst
  in
  (* One instruction per fused group, reading only the group's external
     inputs and writing only the root's range. Each member becomes one
     opcode ([Tensor.f_*]) of a [Tensor.fused_step] array that the C stub
     decodes, applying per block the same kernel op the member's unfused
     instruction runs, so the fused instruction is bit-identical to running
     the members one at a time. Operand tensors are re-fetched from
     [values] on every run because persistent slots rebind on feed. *)
  let build_fused g dst =
    let externals = Array.of_list g.Fuse.externals in
    let opslots =
      Array.map (fun e -> Hashtbl.find slot_of_id (Node.id e)) externals
    in
    let next_ext = ref 0 in
    let take () =
      let j = !next_ext in
      incr next_ext;
      j
    in
    (* Externals appear in evaluation order: the head's first input is the
       seed (operand 0); each binary member's second input is the next
       index. *)
    let step_of ~is_head member =
      if is_head then ignore (take ());
      match Node.op member with
      | Op.Neg -> Tensor.f_neg
      | Op.Scale k -> Tensor.f_scale k
      | Op.AddScalar k -> Tensor.f_add_scalar k
      | Op.PowConst p -> Tensor.f_pow_const p
      | Op.Sigmoid -> Tensor.f_sigmoid
      | Op.Tanh -> Tensor.f_tanh
      | Op.Relu -> Tensor.f_relu
      | Op.Exp -> Tensor.f_exp
      | Op.Log -> Tensor.f_log
      | Op.Sqrt -> Tensor.f_sqrt
      | Op.Sq -> Tensor.f_sq
      | Op.Recip -> Tensor.f_recip
      | Op.Sign -> Tensor.f_sign
      | Op.Add -> Tensor.f_add (take ())
      | Op.Sub -> Tensor.f_sub (take ())
      | Op.Mul -> Tensor.f_mul (take ())
      | Op.Div -> Tensor.f_div (take ())
      | Op.ScaleBy -> Tensor.f_scale_by (take ())
      | _ -> assert false (* [Fuse.elementwise] members only *)
    in
    let steps =
      match g.Fuse.members with
      | [] -> assert false
      | head :: rest ->
        let h = step_of ~is_head:true head in
        let r =
          List.rev
            (List.fold_left
               (fun acc m -> step_of ~is_head:false m :: acc)
               [] rest)
        in
        Array.of_list (h :: r)
    in
    assert (!next_ext = Array.length externals);
    let operands = Array.make (Array.length opslots) (Tensor.scalar 0.0) in
    fun () ->
      for i = 0 to Array.length opslots - 1 do
        Array.unsafe_set operands i values.(Array.unsafe_get opslots i)
      done;
      Tensor.Into.fused ~runtime steps operands ~dst
  in
  Array.iteri
    (fun step node ->
      if offset_of_slot.(step) >= 0 then
        instrs.(step) <-
          (match group_of_root node with
          | Some g -> build_fused g values.(step)
          | None -> build node values.(step) ~const:sole_tenant.(step)))
    nodes;
  let output_slots =
    Array.of_list
      (List.map
         (fun o -> Hashtbl.find slot_of_id (Node.id o))
         (Graph.outputs graph))
  in
  let persistent = Array.of_list (List.rev !persistent) in
  (* Describe the schedule to the shadow-memory sanitizer: which slab
     cells each slot writes, which it reads and from which producer, and
     how long the plan keeps its value alive — the same ranges the static
     checkers see. *)
  let sanitizer =
    if not (Sanitize.is_on sanitize_mode) then None
    else begin
      let tracked_inputs node =
        match group_of_root node with
        | Some g -> g.Fuse.externals
        | None -> Node.inputs node
      in
      let slots =
        Array.mapi
          (fun step node ->
            let si_name =
              Printf.sprintf "%s %s" (Op.to_string (Node.op node))
                (Node.name node)
            in
            let off = offset_of_slot.(step) in
            let si_dst =
              if off < 0 then None
              else Some (elem_of_bytes off, Shape.numel (Node.shape node))
            in
            let si_const =
              match Node.op node with
              | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _ ->
                off >= 0 && sole_tenant.(step)
              | _ -> false
            in
            let si_reads =
              if si_dst = None then [||]
              else
                Array.of_list
                  (List.filter_map
                     (fun input ->
                       match Hashtbl.find_opt slot_of_id (Node.id input) with
                       | Some s when offset_of_slot.(s) >= 0 ->
                         Some
                           ( s,
                             elem_of_bytes offset_of_slot.(s),
                             Shape.numel (Node.shape input) )
                       | Some _ | None -> None)
                     (tracked_inputs node))
            in
            let si_expire = plan.Memplan.expiry_of_slot.(step) in
            { Sanitize.si_name; si_dst; si_const; si_reads; si_expire })
          nodes
      in
      Some (Sanitize.create sanitize_mode ~slots ~slab)
    end
  in
  {
    graph;
    runtime;
    nodes;
    instrs;
    values;
    slot_of_id;
    persistent;
    is_persistent_slot;
    fed = Array.make n false;
    all_fed = Array.length persistent = 0;
    output_slots;
    outs = Array.make (Array.length output_slots) (Tensor.scalar 0.0);
    plan;
    allocated_bytes =
      !persistent_bytes + (Node.elem_bytes * Array.length slab) + !max_ws;
    pending_flips = [];
    sanitize = sanitizer;
  }

let graph e = e.graph
let runtime e = e.runtime
let instruction_count e = Array.length e.instrs
let plan e = e.plan

let fused_group_count e =
  Option.fold ~none:0 ~some:Fuse.group_count e.plan.Memplan.fusion

let fused_interior_count e =
  Option.fold ~none:0 ~some:Fuse.interior_count e.plan.Memplan.fusion

let active_instruction_count e =
  Array.fold_left (fun acc f -> if f == nop then acc else acc + 1) 0 e.instrs

let footprint_bytes e = e.plan.Memplan.arena_bytes

let offsets e = Assign.of_plan e.graph e.plan
let allocated_bytes e = e.allocated_bytes

let sanitize_report e = Option.map Sanitize.report e.sanitize

let slot_opt e node = Hashtbl.find_opt e.slot_of_id (Node.id node)

let slot e node =
  match slot_opt e node with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Executor.slot: node %s (#%d) is not in the graph"
         (Node.name node) (Node.id node))

let schedule_flip e ~slot ~index ~bit =
  if slot < 0 || slot >= Array.length e.nodes then
    invalid_arg
      (Printf.sprintf "Executor.schedule_flip: slot %d outside 0..%d" slot
         (Array.length e.nodes - 1));
  (* Fused interiors own no value at run time; transient values and fed
     persistent tensors do. *)
  if
    not (e.is_persistent_slot.(slot) || e.plan.Memplan.offset_of_slot.(slot) >= 0)
  then
    invalid_arg
      (Printf.sprintf
         "Executor.schedule_flip: slot %d (%s) does not materialise — fused \
          interiors own no buffer to upset"
         slot
         (Node.name e.nodes.(slot)));
  if index < 0 || bit < 0 || bit > 63 then
    invalid_arg "Executor.schedule_flip: index must be >= 0 and bit in 0..63";
  e.pending_flips <- e.pending_flips @ [ (slot, index, bit) ]

let set_input e s tensor =
  if s < 0 || s >= Array.length e.nodes || not e.is_persistent_slot.(s) then
    invalid_arg "Executor.set_input: not an input slot";
  let node = e.nodes.(s) in
  if not (Shape.equal (Node.shape node) (Tensor.shape tensor)) then
    invalid_arg
      (Printf.sprintf "Executor.feed: feed for %s has shape %s, node has %s"
         (Node.name node)
         (Shape.to_string (Tensor.shape tensor))
         (Shape.to_string (Node.shape node)));
  e.values.(s) <- tensor;
  e.fed.(s) <- true

(* Name-based input resolution: the bridge that lets a cached executable
   serve a structurally identical graph from a different build (fresh node
   ids). Canonical fingerprints include leaf names, so a fingerprint match
   guarantees this resolution exists. *)
let input_slot_by_name e name =
  let hits =
    Array.fold_left
      (fun acc (node, s) -> if Node.name node = name then s :: acc else acc)
      [] e.persistent
  in
  match hits with
  | [ s ] -> Some s
  | [] -> None
  | _ ->
    invalid_arg
      (Printf.sprintf
         "Executor.feed: %d inputs are named %S — name-based feeding needs \
          unique input names"
         (List.length hits) name)

let feed e node tensor =
  match slot_opt e node with
  | Some s -> set_input e s tensor
  | None -> (
    match input_slot_by_name e (Node.name node) with
    | Some s -> set_input e s tensor
    | None -> () (* feeds for inputs this graph lacks are legal, like Interp *))

let run e =
  if not e.all_fed then begin
    let missing =
      Array.fold_right
        (fun (node, s) acc ->
          if e.fed.(s) then acc
          else
            Printf.sprintf "%s (#%d)" (Node.name node) (Node.id node) :: acc)
        e.persistent []
    in
    if missing <> [] then
      raise (Interp.Missing_feed (String.concat ", " missing));
    e.all_fed <- true
  end;
  let instrs = e.instrs in
  (* The hot loop stays untouched when no upset is scheduled; a pending
     flip switches one run onto a path that corrupts the slot's value the
     instant its kernel has written it — before any consumer reads — so
     the flip lands at the same dataflow point under every planner, fusion
     setting and domain count. *)
  (match e.sanitize with
  | Some san ->
    (* Sanitized path: shadow checks bracket every instruction. A pending
       flip is applied after [after_instr] stamps and snapshots the slot's
       destination, so [Full] mode sees the corruption as a foreign write
       at the next instruction — exactly how a real upset would surface. *)
    Sanitize.begin_run san;
    let flips = e.pending_flips in
    for i = 0 to Array.length instrs - 1 do
      Sanitize.before_instr san i;
      (Array.unsafe_get instrs i) ();
      Sanitize.after_instr san i;
      List.iter
        (fun (s, index, bit) ->
          if s = i then Tensor.flip_bit e.values.(i) ~index ~bit)
        flips
    done;
    e.pending_flips <- [];
    Sanitize.check_exn san
  | None -> (
    match e.pending_flips with
    | [] ->
      for i = 0 to Array.length instrs - 1 do
        (Array.unsafe_get instrs i) ()
      done
    | flips ->
      for i = 0 to Array.length instrs - 1 do
        (Array.unsafe_get instrs i) ();
        List.iter
          (fun (s, index, bit) ->
            if s = i then Tensor.flip_bit e.values.(i) ~index ~bit)
          flips
      done;
      e.pending_flips <- []));
  let os = e.output_slots in
  for i = 0 to Array.length os - 1 do
    e.outs.(i) <- e.values.(os.(i))
  done

let outputs e = e.outs

let eval e ~feeds =
  List.iter (fun (node, t) -> feed e node t) feeds;
  run e;
  Array.to_list e.outs
