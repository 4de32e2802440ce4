open Echo_tensor
open Echo_ir
module Executor = Echo_compiler.Executor
module Pipeline = Echo_compiler.Pipeline
module Fault = Echo_runtime.Fault
module Event = Echo_runtime.Event
module Checkpoint = Echo_runtime.Checkpoint

type batch = (Node.t * Tensor.t) list
type step_stats = { step : int; loss : float; grad_norm : float }
type result = { losses : float list; params : (Node.t * Tensor.t) list }
type checkpoint_spec = { path : string; every : int; resume : bool }

let missing_feed_error ~step names =
  invalid_arg
    (Printf.sprintf
       "Loop.train: step %d has no feed for %s — the batch must supply a \
        tensor for every placeholder the graph reads; check the batch \
        construction (and that ids/labels entries were not dropped)"
       step names)

(* Activation-site predicate: materialising, non-elementwise, not an input
   or compile-time constant. Shared between the fault-plan validation (over
   the original graph) and the arming path (over the executor's own graph,
   which under a plan-cache hit is a different build of the same
   structure). *)
let is_act_site n =
  (not (Fuse.elementwise n))
  &&
  match Node.op n with
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _
  | Op.DropoutMask _ ->
    false
  | _ -> true

let train ~graph ~params ~optimizer ?clip_norm ?on_step ?on_event ?budget_bytes
    ?(faults = Fault.of_env ()) ?checkpoint
    ?(device = Echo_gpusim.Device.titan_xp) ?(max_retries = 2) ?rng ?runtime
    ?fuse ?sanitize ?planner ?cache ~batches () =
  let emit = match on_event with Some f -> f | None -> fun _ -> () in
  let param_nodes = Array.of_list (List.map fst params) in
  let n_params = Array.length param_nodes in
  (* The loop owns its parameter tensors: the caller's are copied once, so
     the in-place optimizer step (and a parameter bit flip) never reaches
     them — campaign golden runs share one set of initial values. *)
  let param_values =
    Array.of_list (List.map (fun (_, v) -> Tensor.copy v) params)
  in
  (* Clipping scales into these, allocated on the first step. *)
  let clip_buffers = ref [||] in
  (* Activation bit-flip sites: the materialising forward nodes of the
     *original* graph, in deterministic schedule order. Elementwise nodes
     are excluded (a fusion plan may bury them in registers) and so are
     inputs and compile-time constants (their single-writer buffers are
     materialised once, so a flip would persist across steps) — what
     remains is guaranteed a fresh arena write every step under every
     planner, fusion setting and domain count, which is what makes a
     [flip@STEP=act:...] spec planner-independent. *)
  let act_sites =
    Array.of_list (List.filter is_act_site (Graph.forward_nodes graph))
  in
  (* Fail fast: a fault plan naming a site or parameter this run does not
     have is a malformed plan, reported before any compilation — not a
     crash mid-train. *)
  List.iter
    (fun { Fault.step; kind } ->
      match kind with
      | Fault.Flip_act { site; _ } when site >= Array.length act_sites ->
        raise
          (Fault.Bad_spec
             (Printf.sprintf
                "entry %S: activation site %d out of range — \
                 this graph has %d injection sites (0..%d)"
                (Fault.kind_to_string step kind)
                site
                (Array.length act_sites)
                (Array.length act_sites - 1)))
      | Fault.Flip_param _ when n_params = 0 ->
        raise
          (Fault.Bad_spec
             (Printf.sprintf
                "entry %S: this run has no parameters to flip"
                (Fault.kind_to_string step kind)))
      | _ -> ())
    (Fault.specs faults);
  (* A parameter flip indexes the flattened concatenation of all parameter
     tensors in declaration order (mod the total) and persists across
     steps. It lands in the loop's own copy, never the caller's. *)
  let apply_param_flip ~index ~bit =
    let total =
      Array.fold_left (fun acc v -> acc + Tensor.numel v) 0 param_values
    in
    let i = index mod total in
    let rec locate k off =
      let n = Tensor.numel param_values.(k) in
      if i < off + n then (k, i - off) else locate (k + 1) (off + n)
    in
    let k, local = locate 0 0 in
    Tensor.flip_bit param_values.(k) ~index:local ~bit;
    Printf.sprintf "%s[%d] bit %d" (Node.name param_nodes.(k)) local bit
  in
  (* The device budget is mutable: a simulated OOM fault shrinks it mid-run
     and the loop re-plans the *original* graph through the escalation
     ladder, so recompute clones never stack on top of earlier rewrites. *)
  let budget = ref budget_bytes in
  (* A planner resolved through the registry rewrites the original graph
     once, up front; OOM recovery still re-plans the *original* graph so
     recompute clones never stack on top of the planner's rewrite. *)
  let current_graph =
    ref
      (match planner with
      | None -> graph
      | Some i -> fst (Echo_core.Pass.run_instance ~device i graph))
  in
  let compile_current () =
    Pipeline.executor
      (Pipeline.compile_graph ?budget_bytes:!budget ?runtime ?fuse ?sanitize
         ?cache !current_graph)
  in
  let replan ~step ~requested_bytes ~allowed =
    emit (Event.Budget_hit { step; requested_bytes; budget_bytes = allowed });
    match
      Echo_core.Autotune.fit_memory ~device ?fuse graph ~budget_bytes:allowed
    with
    | None ->
      raise
        (Executor.Budget_exceeded { requested_bytes; budget_bytes = allowed })
    | Some outcome ->
      current_graph := outcome.Echo_core.Autotune.graph;
      let e = compile_current () in
      emit
        (Event.Replan
           {
             step;
             planner = Echo_core.Autotune.label outcome;
             footprint_bytes = Executor.footprint_bytes e;
             budget_bytes = allowed;
           });
      e
  in
  let compile_recovering ~step () =
    try compile_current ()
    with Executor.Budget_exceeded { requested_bytes; budget_bytes = allowed } ->
      replan ~step ~requested_bytes ~allowed
  in
  (* Compile once; every step is then a slot-indexed executor sweep — no
     per-step scheduling, no hashtable, no feed-list append. Re-compilation
     only happens on recovery. *)
  let exe = ref (compile_recovering ~step:0 ()) in
  (* Parameters the loss does not depend on may be absent from the graph
     (their Zeros gradient node carries no reference to them); [feed]
     ignores those, as the interpreter's feed list did. *)
  let n_outputs = Array.length (Executor.outputs !exe) in
  if n_outputs = 0 then invalid_arg "Loop.train: graph has no outputs";
  if n_outputs - 1 <> n_params then
    invalid_arg
      (Printf.sprintf
         "Loop.train: graph yields %d gradient output(s) for %d parameter(s)"
         (n_outputs - 1) n_params);
  let step = ref 0 in
  let losses = ref [] in
  let write_checkpoint path =
    let snap = Optimizer.snapshot optimizer ~param_nodes in
    Checkpoint.save ~path
      {
        Checkpoint.step = !step;
        rng_state = Option.map Rng.state rng;
        opt_steps = snap.Optimizer.steps;
        losses = List.rev !losses;
        params =
          Array.to_list
            (Array.map2
               (fun node v -> (Node.name node, v))
               param_nodes param_values);
        slots =
          [
            ("velocity", snap.Optimizer.velocity);
            ("second", snap.Optimizer.second);
          ];
      };
    emit (Event.Checkpoint_write { step = !step; path })
  in
  let batches =
    match checkpoint with
    | Some { path; resume = true; _ } when Sys.file_exists path ->
      let ckpt = Checkpoint.load path in
      let n_saved = List.length ckpt.Checkpoint.params in
      if n_saved <> n_params then
        invalid_arg
          (Printf.sprintf
             "Loop.train: checkpoint %s holds %d parameter(s), the model has \
              %d"
             path n_saved n_params);
      List.iteri
        (fun i (name, tensor) ->
          let node = param_nodes.(i) in
          if name <> Node.name node then
            invalid_arg
              (Printf.sprintf
                 "Loop.train: checkpoint %s parameter %d is %S, the model's \
                  is %S — wrong checkpoint for this model?"
                 path i name (Node.name node));
          param_values.(i) <- tensor)
        ckpt.Checkpoint.params;
      Optimizer.restore optimizer ~param_nodes
        {
          Optimizer.steps = ckpt.Checkpoint.opt_steps;
          velocity =
            Option.value ~default:[]
              (List.assoc_opt "velocity" ckpt.Checkpoint.slots);
          second =
            Option.value ~default:[]
              (List.assoc_opt "second" ckpt.Checkpoint.slots);
        };
      (match (rng, ckpt.Checkpoint.rng_state) with
      | Some r, Some s -> Rng.set_state r s
      | _ -> ());
      losses := List.rev ckpt.Checkpoint.losses;
      step := ckpt.Checkpoint.step;
      emit (Event.Checkpoint_load { step = ckpt.Checkpoint.step; path });
      (* The caller regenerates the full deterministic batch stream; skip
         the prefix the interrupted run already consumed. *)
      let rec drop n l =
        if n <= 0 then l
        else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
      in
      drop ckpt.Checkpoint.step batches
    | _ -> batches
  in
  let run_batch batch =
    (* One execution attempt: consult the fault plan, feed, run, read. A
       retry re-enters here, so a second fault scheduled at the same step
       fires on the retry. *)
    let run_once () =
      let poisoned = ref false in
      (match Fault.take faults ~step:!step with
      | Some (Fault.Oom { budget_bytes = b }) ->
        budget := Some b;
        exe := compile_recovering ~step:!step ()
      | Some (Fault.Oom_shrink { fraction }) ->
        let b =
          max 1
            (int_of_float
               (fraction *. float_of_int (Executor.footprint_bytes !exe)))
        in
        budget := Some b;
        exe := compile_recovering ~step:!step ()
      | Some (Fault.Transient why) -> raise (Fault.Transient_failure why)
      | Some Fault.Nan_poison -> poisoned := true
      | Some (Fault.Flip_param { index; bit } as fault) ->
        let target = apply_param_flip ~index ~bit in
        emit (Event.Fault_injected { step = !step; fault; target })
      | Some (Fault.Flip_act { site; index; bit } as fault) ->
        let e = !exe in
        (* Resolve the site inside the executor's own graph: under a plan-
           cache hit the executor's nodes are a different build's, but the
           SITEth materialising non-elementwise forward node is the same
           operation in every build of the structure, so the flip lands at
           the same dataflow point. *)
        let node =
          List.nth
            (List.filter is_act_site (Graph.forward_nodes (Executor.graph e)))
            site
        in
        Executor.schedule_flip e ~slot:(Executor.slot e node) ~index ~bit;
        (* Describe the site by its dataflow identity (ordinal, op, shape)
           rather than [Node.name]: fresh builds of the same model assign
           fresh ids, but the SITEth materialising forward node is the same
           operation in every one of them — so this string is comparable
           across planners, fusion settings and independently built runs. *)
        let target =
          Printf.sprintf "act site %d: %s %s" site
            (Op.to_string (Node.op node))
            (Shape.to_string (Node.shape node))
        in
        emit (Event.Fault_injected { step = !step; fault; target })
      | None -> ());
      let e = !exe in
      (* A plan-cache hit serves an executor built from another build of
         this graph: [Executor.feed] resolves those nodes by name. *)
      List.iter (fun (node, tensor) -> Executor.feed e node tensor) batch;
      for i = 0 to n_params - 1 do
        Executor.feed e param_nodes.(i) param_values.(i)
      done;
      (try Executor.run e
       with Echo_exec.Interp.Missing_feed names ->
         missing_feed_error ~step:!step names);
      let outs = Executor.outputs e in
      let loss = if !poisoned then Float.nan else Tensor.get1 outs.(0) 0 in
      (loss, Array.sub outs 1 n_params)
    in
    let rec attempt retries =
      match run_once () with
      | outcome -> `Ran outcome
      | exception Fault.Transient_failure why ->
        if retries < max_retries then begin
          emit
            (Event.Retry
               {
                 step = !step;
                 attempt = retries + 1;
                 fault = Fault.Transient why;
               });
          attempt (retries + 1)
        end
        else begin
          emit
            (Event.Skip
               { step = !step; retries; fault = Fault.Transient why });
          `Skipped
        end
    in
    (match attempt 0 with
    | `Skipped -> () (* batch consumed; no loss recorded, no update *)
    | `Ran (loss, grads) ->
      let grads =
        match clip_norm with
        | None -> grads
        | Some max_norm ->
          if Array.length !clip_buffers = 0 then
            clip_buffers :=
              Array.map (fun g -> Tensor.zeros (Tensor.shape g)) grads;
          Optimizer.clip_by_global_norm_into ~max_norm grads
            ~dst:!clip_buffers
      in
      let grad_norm = Optimizer.global_norm grads in
      if not (Float.is_finite loss && Float.is_finite grad_norm) then begin
        (* Keep the loss visible in the history, but protect the parameters
           from a poisoned update. *)
        emit (Event.Nan_guard { step = !step; loss; grad_norm });
        losses := loss :: !losses
      end
      else begin
        (match on_step with
        | Some f -> f { step = !step; loss; grad_norm }
        | None -> ());
        Optimizer.step_in_place optimizer ~param_nodes ~params:param_values
          ~grads;
        losses := loss :: !losses
      end);
    incr step;
    match checkpoint with
    | Some { path; every; _ } when every > 0 && !step mod every = 0 ->
      write_checkpoint path
    | _ -> ()
  in
  List.iter run_batch batches;
  {
    losses = List.rev !losses;
    params =
      List.combine (Array.to_list param_nodes) (Array.to_list param_values);
  }

let perplexity loss = exp loss
