(* nmt-train: the paper's headline workload. [Loop.train] on a Luong-
   attention NMT model under the echo planner; one op is one training step.
   The compiler runs once, in set-up; the executor, the kernel runtime, the
   host optimizer and the checkpoint writer do the timed work. *)

open Echo_tensor
open Echo_ir
open Echo_models
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Checkpoint = Echo_runtime.Checkpoint
module Corpus = Echo_workloads.Corpus
module H = Harness

let cfg =
  {
    Nmt.src_vocab = 500;
    tgt_vocab = 500;
    embed = 64;
    hidden = 64;
    enc_layers = 2;
    dec_layers = 2;
    src_len = 20;
    tgt_len = 20;
    batch = 16;
    dropout = 0.2;
    attention = true;
    seed = 7;
  }

let domains = 1
let clip_norm = 5.0
let checkpoint_every = 25
let device = Echo_gpusim.Device.titan_xp
let planner () = Echo_core.Planner.instantiate "echo"

let optimizer () =
  Optimizer.create
    (Optimizer.Adam { lr = 1e-3; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 })

(* Distinct batches drawn from the seeded corpus, cycled for as many steps
   as the run lasts. *)
let distinct_batches = 32

(* Steps whose loss and clipped gradient norm are re-derived with the
   reference interpreter. *)
let oracle_steps = 2

let config =
  [
    ("model", "nmt luong-attention embed=64 hidden=64 layers=2+2 src_len=20 tgt_len=20 batch=16 vocab=500 dropout=0.2");
    ("planner", "echo");
    ("optimizer", "adam lr=1e-3 clip=5.0");
    ("domains", string_of_int domains);
    ("fusion", "on");
    ("sanitize", "off");
    ("checkpoint_every", string_of_int checkpoint_every);
  ]

type built = {
  nmt : Nmt.t;
  training : Pipeline.training;
  params : (Node.t * Tensor.t) list;
  pool : Loop.batch array;
}

let build ~seed =
  let nmt = H.span "models.build" (fun () -> Nmt.build cfg) in
  let training =
    H.span "pipeline.differentiate" (fun () ->
        Pipeline.differentiate (Pipeline.of_model nmt.Nmt.model))
  in
  let len = (distinct_batches + 2) * cfg.Nmt.batch * cfg.Nmt.src_len in
  let src = Corpus.generate ~seed ~vocab:cfg.Nmt.src_vocab ~length:len in
  let tgt = Corpus.generate ~seed:(seed + 1) ~vocab:cfg.Nmt.tgt_vocab ~length:len in
  let pool =
    Array.of_list
      (List.map
         (fun (s, t, l) ->
           [ (nmt.Nmt.src_input, s); (nmt.Nmt.tgt_input, t); (nmt.Nmt.label_input, l) ])
         (Corpus.pair_batches ~src ~tgt ~batch:cfg.Nmt.batch ~src_len:cfg.Nmt.src_len
            ~tgt_len:cfg.Nmt.tgt_len ~steps:distinct_batches))
  in
  { nmt; training; params = Params.bindings nmt.Nmt.model.Model.params; pool }

let graph b = b.training.Pipeline.autodiff.Echo_autodiff.Grad.graph
let batch b k = b.pool.(k mod Array.length b.pool)

let global_norm grads =
  sqrt (Array.fold_left (fun acc g -> let n = Tensor.frobenius g in acc +. (n *. n)) 0.0 grads)

exception Time_up

(* A timed phase ends only after a checkpoint period, so every run weighs
   checkpoint steps the same. *)
let period_done completed = completed > 0 && completed mod checkpoint_every = 0

type trajectory = { mutable losses : float list; mutable norms : float list }

(* Drive [Loop.train] until [seconds] have passed since its compile
   returned. The compile is observed through the [Pipeline.cache] hook,
   which here caches nothing: it runs the compile and notes when the first
   step can start. Each op is the interval between two [on_step] calls. *)
let train_loop ~runtime ~ckpt b ~steps ~seconds ~ops ~on_compiled =
  let traj = { losses = []; norms = [] } in
  let last = ref None and deadline = ref infinity in
  let hook =
    {
      Pipeline.fetch =
        (fun ~key:_ ~compile ->
          let exe = compile () in
          on_compiled exe;
          deadline := H.now () +. seconds;
          last := Some (H.mark ());
          exe);
    }
  in
  let steps_seen = ref 0 in
  let on_step (s : Loop.step_stats) =
    (match !last with Some m -> H.close ops m | None -> ());
    traj.losses <- s.Loop.loss :: traj.losses;
    traj.norms <- s.Loop.grad_norm :: traj.norms;
    incr steps_seen;
    if H.now () >= !deadline && period_done (!steps_seen - 1) then raise Time_up;
    last := Some (H.mark ())
  in
  (try
     ignore
       (Loop.train ~graph:(graph b) ~params:b.params ~optimizer:(optimizer ())
          ~clip_norm ~on_step ~runtime ~fuse:true ~sanitize:Echo_analysis.Sanitize.Off
          ~faults:Echo_runtime.Fault.none ~device ~planner:(planner ()) ~cache:hook
          ~checkpoint:{ Loop.path = ckpt; every = checkpoint_every; resume = false }
          ~batches:(List.init steps (batch b)) ())
   with Time_up -> ());
  traj.losses <- List.rev traj.losses;
  traj.norms <- List.rev traj.norms;
  traj

(* The traced program: the same public calls in the same order as
   [Loop.train]'s step (feed, run, clip, [step_arrays], checkpoint save),
   each under a span, over an executable compiled stage by stage. *)
let traced_loop ~runtime ~ckpt ~seed ~seconds ~max_ops ~ops =
  let b = build ~seed in
  let exe =
    b.training
    |> (fun t -> H.span "pipeline.optimize" (fun () -> Pipeline.optimize ~enabled:false t))
    |> (fun o -> H.span "pipeline.rewrite" (fun () -> Pipeline.rewrite ~device ~planner:(planner ()) o))
    |> (fun r -> H.span "pipeline.plan" (fun () -> Pipeline.plan r))
    |> (fun p -> H.span "pipeline.fuse" (fun () -> Pipeline.fuse ~enabled:true ~runtime p))
    |> fun f ->
    H.span "pipeline.compile" (fun () ->
        Pipeline.compile ~runtime ~sanitize:Echo_analysis.Sanitize.Off f)
  in
  let e = Pipeline.executor exe in
  let param_nodes = Array.of_list (List.map fst b.params) in
  let n = Array.length param_nodes in
  let values = ref (Array.of_list (List.map snd b.params)) in
  let opt = optimizer () in
  let traj = { losses = []; norms = [] } in
  let first_grads = ref [||] in
  let deadline = H.now () +. seconds in
  let step = ref 0 in
  while (H.now () < deadline || not (period_done !step)) && !step < max_ops do
    incr H.current_op;
    let m = H.mark () in
    H.span "train.step" (fun () ->
        H.span "executor.feed" (fun () ->
            List.iter (fun (node, t) -> Executor.feed e node t) (batch b !step);
            Array.iteri (fun i node -> Executor.feed e node !values.(i)) param_nodes);
        H.span "executor.run" (fun () -> Executor.run e);
        let outs = Executor.outputs e in
        let loss = Tensor.get1 outs.(0) 0 in
        if !step = 0 then first_grads := Array.map Tensor.copy (Array.sub outs 1 n);
        let grads, norm =
          H.span "train.clip" (fun () ->
              let g = Optimizer.clip_by_global_norm_arrays ~max_norm:clip_norm (Array.sub outs 1 n) in
              (g, global_norm g))
        in
        traj.losses <- loss :: traj.losses;
        traj.norms <- norm :: traj.norms;
        values :=
          H.span "train.optimizer" (fun () ->
              Optimizer.step_arrays opt ~param_nodes ~params:!values ~grads);
        incr step;
        if !step mod checkpoint_every = 0 then
          H.span "runtime.checkpoint" (fun () ->
              let snap = Optimizer.snapshot opt ~param_nodes in
              Checkpoint.save ~path:ckpt
                {
                  Checkpoint.step = !step;
                  rng_state = None;
                  opt_steps = snap.Optimizer.steps;
                  losses = List.rev traj.losses;
                  params =
                    Array.to_list (Array.map2 (fun nd v -> (Node.name nd, v)) param_nodes !values);
                  slots =
                    [ ("velocity", snap.Optimizer.velocity); ("second", snap.Optimizer.second) ];
                }));
    H.close ops m
  done;
  traj.losses <- List.rev traj.losses;
  traj.norms <- List.rev traj.norms;
  (traj, !first_grads)

(* Reference training on the un-rewritten graph through the interpreter:
   losses, clipped gradient norms and the step-0 gradients. [wrong]
   perturbs them, to show the checks catch a mismatch. *)
let reference b ~steps ~wrong =
  let param_nodes = Array.of_list (List.map fst b.params) in
  let n = Array.length param_nodes in
  let values = ref (Array.of_list (List.map snd b.params)) in
  let opt = optimizer () in
  let out = ref [] and grads0 = ref [||] in
  for k = 0 to steps - 1 do
    let feeds =
      batch b k @ Array.to_list (Array.mapi (fun i nd -> (nd, !values.(i))) param_nodes)
    in
    let outs = Array.of_list (Echo_exec.Interp.eval (graph b) ~feeds) in
    let grads = Array.sub outs 1 n in
    if k = 0 then grads0 := Array.map Tensor.copy grads;
    let g = Optimizer.clip_by_global_norm_arrays ~max_norm:clip_norm grads in
    out := (Tensor.get1 outs.(0) 0, global_norm g) :: !out;
    values := Optimizer.step_arrays opt ~param_nodes ~params:!values ~grads:g
  done;
  if wrong then begin
    out := List.map (fun (l, g) -> (l +. 1.0, g)) !out;
    Tensor.set1 !grads0.(0) 0 (Tensor.get1 !grads0.(0) 0 +. 1.0)
  end;
  (List.rev !out, !grads0)

(* Reference steps whose loss or clipped norm differ bit-wise. *)
let mismatches traj refs =
  List.length
    (List.filteri
       (fun k (rl, rg) ->
         match (List.nth_opt traj.losses k, List.nth_opt traj.norms k) with
         | Some l, Some g -> not (H.same_float l rl && H.same_float g rg)
         | _ -> false)
       refs)

let non_finite traj = List.length (List.filter (fun l -> not (Float.is_finite l)) traj.losses)

let run (ctx : H.ctx) =
  let runtime = Echo_tensor.Parallel.create ~domains () in
  let ckpt = Filename.concat ctx.H.out_dir "nmt-train.ckpt" in
  let untraced_s, traced_s = H.phases ctx in
  let ops = H.ops () in
  (* Set-up, [reps] times: build, differentiate, and [Loop.train]'s own
     compile; the last repetition goes on to train. *)
  let pre = H.now () -. H.t_main in
  let durations = ref [] in
  let exe = ref None in
  let rec setup i =
    let t0 = H.now () in
    let b = build ~seed:ctx.H.seed in
    let on_compiled e =
      exe := Some e;
      durations := (H.now () -. t0) :: !durations
    in
    if i < ctx.H.reps then begin
      ignore (train_loop ~runtime ~ckpt b ~steps:0 ~seconds:0.0 ~ops ~on_compiled);
      setup (i + 1)
    end
    else
      ( b,
        train_loop ~runtime ~ckpt b
          ~steps:(min ctx.H.max_ops (200 + int_of_float (100.0 *. untraced_s)))
          ~seconds:untraced_s ~ops ~on_compiled )
  in
  let b, traj = setup 1 in
  let setup_s = pre +. H.median (Array.of_list !durations) in
  let exe = Option.get !exe in
  (* Untimed from here on, apart from the traced phase. *)
  let traced =
    if ctx.H.trace then begin
      let tops = H.ops () in
      H.tracing := true;
      let ttraj, grads0 =
        traced_loop ~runtime ~ckpt ~seed:ctx.H.seed ~seconds:traced_s ~max_ops:ctx.H.max_ops
          ~ops:tops
      in
      H.tracing := false;
      Some (ttraj, grads0, tops)
    end
    else None
  in
  let refs, ref_grads0 = reference b ~steps:oracle_steps ~wrong:ctx.H.wrong_reference in
  ops.H.failed <- mismatches traj refs + non_finite traj;
  (match traced with
  | None -> ()
  | Some (ttraj, grads0, tops) ->
    (* The traced program must be the measured one: its losses repeat the
       untraced [Loop.train] trajectory bit for bit, and its step-0
       gradients equal the interpreter's. *)
    let diverged =
      List.length
        (List.filteri
           (fun k l ->
             match List.nth_opt traj.losses k with
             | Some u -> not (H.same_float u l)
             | None -> false)
           ttraj.losses)
    in
    let bad_grads =
      if Array.length grads0 = Array.length ref_grads0 && Array.for_all2 H.same_bits grads0 ref_grads0
      then 0
      else 1
    in
    tops.H.failed <- min tops.H.attempted (diverged + bad_grads + mismatches ttraj refs + non_finite ttraj));
  let checkpoint_bytes = try (Unix.stat ckpt).Unix.st_size with Unix.Unix_error _ -> 0 in
  (try Sys.remove ckpt with Sys_error _ -> ());
  let e = Pipeline.executor exe in
  let stash =
    Pipeline.of_training_graph (graph b)
    |> Pipeline.optimize ~enabled:false |> Pipeline.rewrite ~device |> Pipeline.plan
    |> Pipeline.fuse ~enabled:true ~runtime
  in
  let rewritten, report = Echo_core.Pass.run_instance ~device (planner ()) (graph b) in
  let findings =
    let r = Echo_diag.Report.create () in
    Echo_diag.Report.append ~into:r (Pipeline.verify (Pipeline.Executable exe));
    Echo_diag.Report.append ~into:r (Pipeline.race_verify exe);
    Echo_diag.Report.error_count r
  in
  if findings > 0 then ops.H.failed <- ops.H.failed + 1;
  ops.H.failed <- min ops.H.attempted ops.H.failed;
  let footprint = Executor.footprint_bytes e in
  let count name n = H.m name "count" (float_of_int n) in
  {
    Report.setup_s;
    ops;
    footprint_bytes = float_of_int footprint;
    footprint_reduction_x =
      float_of_int stash.Pipeline.fused_memplan.Echo_exec.Memplan.arena_bytes /. float_of_int footprint;
    sim_step_ms = 1000.0 *. report.Echo_core.Pass.optimised_time_s;
    sim_overhead_x = report.Echo_core.Pass.optimised_time_s /. report.Echo_core.Pass.baseline_time_s;
    traced = Option.map (fun (_, _, t) -> t) traced;
    layer =
      [
        count "ir.training_nodes" (Graph.node_count (graph b));
        count "ir.rewritten_nodes" (Graph.node_count rewritten);
        count "core.clone_nodes" report.Echo_core.Pass.clone_nodes;
        count "executor.active_instrs" (Executor.active_instruction_count e);
        count "executor.fused_groups" (Executor.fused_group_count e);
        count "analysis.error_findings" findings;
        H.m "runtime.checkpoint_bytes" "B" (float_of_int checkpoint_bytes);
      ];
    config =
      config
      @ [ ("input_digest", H.digest_tensors (List.concat_map (List.map snd) (Array.to_list b.pool))) ];
  }
