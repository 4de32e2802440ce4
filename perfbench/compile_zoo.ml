(* compile-zoo: a seeded draw of (model x planner) specs pushed through the
   whole compiler, then one executor step. One op is: build the model ->
   differentiate -> optimize -> rewrite -> plan -> fuse -> compile ->
   verify + race_verify -> one step. The compile layers do the timed work
   here and almost none in steady-state nmt-train, which is this workload's
   no-change control.

   The shapes keep the small-scale zoo's structure (lengths, layers, heads)
   with narrower widths, so that the one executor step does not outweigh
   the compile. They are stated here in full so that edits elsewhere in
   the repo cannot change the workload. gru-lm makes the spec count odd,
   which puts the median inside one spec's cluster of latencies instead of
   on the gap between two. *)

open Echo_tensor
open Echo_ir
open Echo_models
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module H = Harness

let device = Echo_gpusim.Device.titan_xp

type model = {
  name : string;
  build : unit -> Model.t;
  ids_below : int;  (** id placeholders draw from [0, ids_below) *)
}

let models =
  [
    {
      name = "lstm-lm";
      build =
        (fun () ->
          (Language_model.build
             {
               Language_model.vocab = 200;
               embed = 64;
               hidden = 64;
               layers = 2;
               seq_len = 12;
               batch = 4;
               dropout = 0.4;
               cell = Recurrent.Lstm;
               seed = 42;
             })
            .Language_model.model);
      ids_below = 200;
    };
    {
      name = "gru-lm";
      build =
        (fun () ->
          (Language_model.build
             {
               Language_model.vocab = 200;
               embed = 64;
               hidden = 64;
               layers = 2;
               seq_len = 12;
               batch = 4;
               dropout = 0.4;
               cell = Recurrent.Gru;
               seed = 42;
             })
            .Language_model.model);
      ids_below = 200;
    };
    {
      name = "nmt-attn";
      build =
        (fun () ->
          (Nmt.build
             {
               Nmt.src_vocab = 200;
               tgt_vocab = 200;
               embed = 64;
               hidden = 64;
               enc_layers = 2;
               dec_layers = 2;
               src_len = 10;
               tgt_len = 10;
               batch = 4;
               dropout = 0.2;
               attention = true;
               seed = 7;
             })
            .Nmt.model);
      ids_below = 200;
    };
    {
      name = "deepspeech2";
      build =
        (fun () ->
          (Deepspeech.build
             {
               Deepspeech.batch = 1;
               time = 32;
               freq = 32;
               conv_channels = 8;
               rnn_hidden = 32;
               rnn_layers = 2;
               bidirectional = true;
               classes = 29;
               dropout = 0.1;
               seed = 11;
             })
            .Deepspeech.model);
      ids_below = 29;
    };
    {
      name = "transformer";
      build =
        (fun () ->
          (Transformer.build
             {
               Transformer.vocab = 200;
               seq_len = 16;
               batch = 2;
               d_model = 64;
               heads = 8;
               d_ff = 128;
               layers = 2;
               dropout = 0.1;
               seed = 23;
             })
            .Transformer.model);
      ids_below = 200;
    };
  ]

let planners = [ "stash-all"; "echo"; "checkpoint-sqrt"; "dp-bptt"; "olla-arena" ]
let specs = List.concat_map (fun m -> List.map (fun p -> (m, p)) planners) models
let n_specs = List.length specs

let config =
  [
    ("models", "lstm-lm gru-lm nmt-attn deepspeech2 transformer (narrowed small-scale zoo shapes)");
    ("planners", String.concat " " planners);
    ("draw", "a seeded permutation of all model x planner specs per round");
    ("domains", "1");
    ("fusion", "on");
    ("sanitize", "off");
    ("plan_cache", "none");
  ]

(* Seeded placeholder values, in the model's feed order: the spectrogram is
   dense, every other placeholder holds ids. *)
let inputs rng m (model : Model.t) =
  List.map
    (fun p ->
      let shape = Node.shape p in
      if Node.name p = "spectrogram" then Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0
      else Tensor.init shape (fun _ -> float_of_int (Echo_tensor.Rng.int rng m.ids_below)))
    model.Model.placeholders

let feeds (model : Model.t) inputs =
  List.combine model.Model.placeholders inputs @ Params.bindings model.Model.params

(* What a spec's compile yields; a pure function of the spec. *)
type facts = {
  footprint : int;
  arena : int;  (** the fused memplan's arena, which [footprint] must equal *)
  sim_s : float;
  baseline_sim_s : float;
  training_nodes : int;
  rewritten_nodes : int;
  clone_nodes : int;
  active_instrs : int;
  fused_groups : int;
  errors : int;
}

(* One op; returns the facts and the step outputs. *)
let op ~runtime m planner inputs =
  let model = H.span "models.build" (fun () -> m.build ()) in
  let tr =
    H.span "pipeline.differentiate" (fun () -> Pipeline.differentiate (Pipeline.of_model model))
  in
  let o = H.span "pipeline.optimize" (fun () -> Pipeline.optimize tr) in
  let planner = Echo_core.Planner.instantiate planner in
  let r = H.span "pipeline.rewrite" (fun () -> Pipeline.rewrite ~device ~planner o) in
  let p = H.span "pipeline.plan" (fun () -> Pipeline.plan r) in
  let f = H.span "pipeline.fuse" (fun () -> Pipeline.fuse ~enabled:true ~runtime p) in
  let x =
    H.span "pipeline.compile" (fun () ->
        Pipeline.compile ~runtime ~sanitize:Echo_analysis.Sanitize.Off f)
  in
  let v = H.span "analysis.verify" (fun () -> Pipeline.verify (Pipeline.Executable x)) in
  let rv = H.span "analysis.race_verify" (fun () -> Pipeline.race_verify x) in
  let e = Pipeline.executor x in
  H.span "executor.feed" (fun () -> List.iter (fun (n, t) -> Executor.feed e n t) (feeds model inputs));
  H.span "executor.run" (fun () -> Executor.run e);
  let report = r.Pipeline.report in
  ( {
      footprint = Executor.footprint_bytes e;
      arena = f.Pipeline.fused_memplan.Echo_exec.Memplan.arena_bytes;
      sim_s = report.Echo_core.Pass.optimised_time_s;
      baseline_sim_s = report.Echo_core.Pass.baseline_time_s;
      training_nodes = Graph.node_count o.Pipeline.graph;
      rewritten_nodes = Graph.node_count r.Pipeline.graph;
      clone_nodes = report.Echo_core.Pass.clone_nodes;
      active_instrs = Executor.active_instruction_count e;
      fused_groups = Executor.fused_group_count e;
      errors = Echo_diag.Report.error_count v + Echo_diag.Report.error_count rv;
    },
    Executor.outputs e )

(* One round: a seeded permutation of every spec, so any whole number of
   rounds weighs every spec equally. *)
let draw rng =
  let a = Array.of_list specs in
  for i = Array.length a - 1 downto 1 do
    let j = Echo_tensor.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let run (ctx : H.ctx) =
  let runtime = Parallel.sequential in
  let untraced_s, traced_s = H.phases ctx in
  let pre = H.now () -. H.t_main in
  (* Set-up, [reps] times: draw the inputs, then one warm-up compile and
     step per model. *)
  let setup () =
    let t0 = H.now () in
    let rng = Echo_tensor.Rng.create ctx.H.seed in
    let ins = List.map (fun m -> (m.name, inputs rng m (m.build ()))) models in
    List.iter (fun m -> ignore (op ~runtime m "echo" (List.assoc m.name ins))) models;
    (H.now () -. t0, ins, rng)
  in
  let reps = List.init ctx.H.reps (fun _ -> setup ()) in
  let setup_s = pre +. H.median (Array.of_list (List.map (fun (d, _, _) -> d) reps)) in
  let _, ins, rng = List.nth reps (ctx.H.reps - 1) in
  let input_digest =
    H.digest_tensors (List.concat_map snd ins)
    ^ H.digest_string
        (String.concat " "
           (Array.to_list
              (Array.map (fun (m, p) -> m.name ^ ":" ^ p) (draw (Echo_tensor.Rng.copy rng)))))
  in
  (* The interpreter reference, once per model, outside set-up and timing. *)
  let reference =
    List.map
      (fun m ->
        let model = m.build () in
        let graph = (Pipeline.differentiate (Pipeline.of_model model)).Pipeline.autodiff.Echo_autodiff.Grad.graph in
        let outs = Array.of_list (Echo_exec.Interp.eval graph ~feeds:(feeds model (List.assoc m.name ins))) in
        if ctx.H.wrong_reference then Tensor.set1 outs.(0) 0 (Tensor.get1 outs.(0) 0 +. 1.0);
        (m.name, outs))
      models
  in
  let facts = Hashtbl.create n_specs in
  let check ops (m, planner) (fa, outs) =
    Hashtbl.replace facts (m.name, planner) fa;
    let expect = List.assoc m.name reference in
    let ok =
      fa.errors = 0 && fa.footprint = fa.arena
      && Array.length outs = Array.length expect
      && Array.for_all2 H.same_bits outs expect
    in
    if not ok then ops.H.failed <- ops.H.failed + 1
  in
  (* Timed phases end on a round boundary, so every spec weighs the same in
     the latency distribution whatever the host's speed. Each op starts
     after a full major collection, untimed, so its collection work and
     the heap peak do not depend on the garbage the op before it left. *)
  let timed ops seconds ~max_ops =
    let deadline = H.now () +. seconds in
    while H.now () < deadline && ops.H.attempted < max_ops do
      Array.iter
        (fun ((m, planner) as spec) ->
          if ops.H.attempted < max_ops then begin
            Gc.full_major ();
            incr H.current_op;
            let mk = H.mark () in
            let res = H.span "zoo.op" (fun () -> op ~runtime m planner (List.assoc m.name ins)) in
            H.close ops mk;
            check ops spec res
          end)
        (draw rng)
    done
  in
  let ops = H.ops () in
  timed ops untraced_s ~max_ops:ctx.H.max_ops;
  let traced =
    if ctx.H.trace then begin
      let t = H.ops () in
      H.tracing := true;
      timed t traced_s ~max_ops:ctx.H.max_ops;
      H.tracing := false;
      Some t
    end
    else None
  in
  (* Specs the timed ops did not reach are compiled untimed, so the exact
     aggregates always cover the whole spec set. *)
  let scratch = H.ops () in
  List.iter
    (fun ((m, planner) as spec) ->
      if not (Hashtbl.mem facts (m.name, planner)) then
        check scratch spec (op ~runtime m planner (List.assoc m.name ins)))
    specs;
  ops.H.failed <- min ops.H.attempted (ops.H.failed + scratch.H.failed);
  let all = List.map (fun (m, p) -> ((m, p), Hashtbl.find facts (m.name, p))) specs in
  let recompute = List.filter (fun ((_, p), _) -> p <> "stash-all") all in
  let stash m = (Hashtbl.find facts (m.name, "stash-all")).footprint in
  let sum f = float_of_int (List.fold_left (fun acc (_, fa) -> acc + f fa) 0 all) in
  {
    Report.setup_s;
    ops;
    footprint_bytes = sum (fun fa -> fa.footprint);
    footprint_reduction_x =
      H.geomean
        (List.map (fun ((m, _), fa) -> float_of_int (stash m) /. float_of_int fa.footprint) recompute);
    sim_step_ms =
      1000.0 *. List.fold_left (fun acc (_, fa) -> acc +. fa.sim_s) 0.0 all /. float_of_int n_specs;
    sim_overhead_x = H.geomean (List.map (fun (_, fa) -> fa.sim_s /. fa.baseline_sim_s) recompute);
    traced;
    layer =
      [
        H.m "ir.training_nodes" "count" (sum (fun fa -> fa.training_nodes));
        H.m "ir.rewritten_nodes" "count" (sum (fun fa -> fa.rewritten_nodes));
        H.m "core.clone_nodes" "count" (sum (fun fa -> fa.clone_nodes));
        H.m "executor.active_instrs" "count" (sum (fun fa -> fa.active_instrs));
        H.m "executor.fused_groups" "count" (sum (fun fa -> fa.fused_groups));
        H.m "analysis.error_findings" "count" (sum (fun fa -> fa.errors));
      ];
    config = config @ [ ("input_digest", input_digest) ];
  }
