(* The experiment harness: regenerates every table/figure of the paper's
   evaluation (reconstructed index E1..E24 — see DESIGN.md) on the simulated
   GPU substrate, plus a Bechamel micro-suite over the host kernels.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only E3    # one experiment
     dune exec bench/main.exe -- --quick      # shrunken configs *)

open Echo_tensor
open Echo_ir
open Echo_models
open Echo_core
open Echo_exec
open Echo_train
open Echo_workloads
open Harness

let scale = ref Full

(* --check: smoke-gate mode. Runs the E18 grid and the E22 matrix (by
   default alone) and exits 1 if any of their invariants, an E15 or E16
   bit-identity check or an E19 arena invariant is violated. *)
let check_mode = ref false

let zoo ?(scale = !scale) () =
  [
    ("lstm-lm", lazy (build_lm ~scale ()));
    ("nmt-attn", lazy (build_nmt ~scale ()));
    ("deepspeech2", lazy (build_ds2 ~scale ()));
    ("transformer", lazy (build_transformer ~scale ()));
  ]

let graphs : (string, Graph.t * Model.t) Hashtbl.t = Hashtbl.create 8

let graph_of (name, lazy_model) =
  match Hashtbl.find_opt graphs name with
  | Some (g, m) -> (g, m)
  | None ->
    let m = Lazy.force lazy_model in
    let g = training_graph m in
    Hashtbl.replace graphs name (g, m);
    (g, m)

(* E1: model/configuration inventory (paper's workload table). *)
let e1 () =
  heading "E1" "model inventory (workload table)";
  row "%-14s %10s %10s %10s %12s %12s@." "model" "params" "fwd-nodes" "nodes"
    "weights" "stash";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      let r = Memplan.plan graph in
      row "%-14s %10d %10d %10d %12s %12s@." model.Model.name
        (Params.scalar_count model.Model.params)
        (List.length (Graph.forward_nodes graph))
        (Graph.node_count graph)
        (Footprint.human r.Memplan.weight_bytes)
        (Footprint.human r.Memplan.stash_bytes))
    (zoo ())

(* E2: baseline footprint breakdown (feature maps dominate). *)
let e2 () =
  heading "E2" "baseline footprint breakdown at the peak step";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      let r = Memplan.plan graph in
      row "%s (peak %s):@." model.Model.name
        (Footprint.human r.Memplan.live_peak_bytes);
      List.iter
        (fun (cat, bytes) ->
          if bytes > 0 then
            row "  %-18s %10s  (%4.1f%%)@." (Category.to_string cat)
              (Footprint.human bytes)
              (100.0 *. float_of_int bytes /. float_of_int r.Memplan.live_peak_bytes))
        r.Memplan.breakdown;
      row "  %-18s %10s  (persistent + best-fit slab + workspace)@."
        "executed arena"
        (Footprint.human r.Memplan.arena_bytes))
    (zoo ())

(* E3: headline footprint reduction per policy per model, at the live
   peak and at the (unfused) arena the executor allocates. *)
let e3 () =
  heading "E3" "peak footprint and executed arena by policy (headline)";
  row "%-14s %-18s %12s %8s %9s %12s %8s@." "model" "policy" "peak" "factor"
    "overhead" "arena" "factor";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      List.iter
        (fun (_, report) ->
          let arena = report.Pass.optimised_mem.Memplan.arena_bytes in
          row "%-14s %-18s %12s %7.2fx %+8.1f%% %12s %7.2fx@." model.Model.name
            report.Pass.planner
            (Footprint.human report.Pass.optimised_mem.Memplan.live_peak_bytes)
            (Pass.reduction report)
            (100.0 *. Pass.overhead report)
            (Footprint.human arena)
            (float_of_int report.Pass.baseline_mem.Memplan.arena_bytes
            /. float_of_int arena))
        (policy_reports model.Model.name graph))
    (zoo ())

(* E4: footprint vs batch size (the OOM wall moves right). *)
let e4 () =
  heading "E4" "footprint vs batch size (NMT, stash-all vs Echo 10%): peak, then arena";
  let budget_line = device.Echo_gpusim.Device.memory_bytes in
  row "device memory: %s@." (Footprint.human budget_line);
  row "%-8s %18s %18s %8s %12s %12s %8s@." "batch" "stash-all" "echo(10%)"
    "factor" "arena" "arena" "factor";
  let batches = match !scale with Full -> [ 16; 32; 64; 128; 256 ] | Quick -> [ 8; 16 ] in
  List.iter
    (fun batch ->
      let model = build_nmt ~scale:!scale ~batch () in
      let graph = training_graph model in
      let base = Memplan.plan graph in
      let sel = Select.echo device graph ~overhead_budget:0.10 in
      let echo_graph = Rewrite.mirror graph ~mirror_ids:sel.Select.mirror_ids in
      let echo = Memplan.plan echo_graph in
      let mark r =
        Printf.sprintf "%s%s"
          (Footprint.human r.Memplan.live_peak_bytes)
          (if r.Memplan.live_peak_bytes > budget_line then " OOM" else "")
      in
      row "%-8d %18s %18s %7.2fx %12s %12s %7.2fx@." batch (mark base)
        (mark echo)
        (float_of_int base.Memplan.live_peak_bytes
        /. float_of_int echo.Memplan.live_peak_bytes)
        (Footprint.human base.Memplan.arena_bytes)
        (Footprint.human echo.Memplan.arena_bytes)
        (float_of_int base.Memplan.arena_bytes
        /. float_of_int echo.Memplan.arena_bytes))
    batches

(* E5: simulated iteration-time overhead at equal batch size. *)
let e5 () =
  heading "E5" "iteration time by policy at equal batch size";
  row "%-14s %-18s %10s %10s %9s@." "model" "policy" "fwd (ms)" "bwd (ms)" "overhead";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      List.iter
        (fun (inst, report) ->
          let rewritten, _ = Pass.run_instance ~device inst graph in
          let pt = Echo_gpusim.Costmodel.phase_times device rewritten in
          row "%-14s %-18s %10.2f %10.2f %+8.1f%%@." model.Model.name
            report.Pass.planner
            (ms pt.Echo_gpusim.Costmodel.forward_s)
            (ms pt.Echo_gpusim.Costmodel.backward_s)
            (100.0 *. Pass.overhead report))
        (policy_reports model.Model.name graph))
    (zoo ())

(* E6: max batch under a memory budget and resulting training throughput.
   The paper's end-to-end claim: memory freed by Echo admits larger batches,
   which amortise per-iteration overheads into higher samples/s. *)
let e6 () =
  heading "E6" "max batch and throughput under a memory budget (NMT)";
  let candidates =
    match !scale with
    | Full -> [ 16; 32; 64; 96; 128; 192; 256; 384; 512; 768 ]
    | Quick -> [ 8; 16; 32 ]
  in
  let budgets_gib = match !scale with Full -> [ 1.0; 2.0; 4.0 ] | Quick -> [ 0.02 ] in
  let measure use_echo batch =
    let model = build_nmt ~scale:!scale ~batch () in
    let graph = training_graph model in
    let graph =
      if use_echo then begin
        let sel = Select.echo device graph ~overhead_budget:0.10 in
        Rewrite.mirror graph ~mirror_ids:sel.Select.mirror_ids
      end
      else graph
    in
    let r = Memplan.plan graph in
    (Footprint.total_bytes r ~optimizer:Footprint.Momentum,
     float_of_int batch /. iteration_time graph model)
  in
  let table use_echo = List.map (fun b -> (b, measure use_echo b)) candidates in
  let base_table = table false and echo_table = table true in
  row "%-10s %-12s %10s %16s@." "budget" "executor" "max batch" "samples/s (sim)";
  List.iter
    (fun gib ->
      let budget = int_of_float (gib *. 1024.0 *. 1024.0 *. 1024.0) in
      let best tbl =
        List.fold_left
          (fun acc (b, (bytes, thr)) -> if bytes <= budget then Some (b, thr) else acc)
          None tbl
      in
      let show name best_fit =
        match best_fit with
        | None -> row "%-10.1f %-12s %10s@." gib name "OOM"
        | Some (b, thr) -> row "%-10.1f %-12s %10d %16.1f@." gib name b thr
      in
      show "stash-all" (best base_table);
      show "echo(10%)" (best echo_table);
      (match (best base_table, best echo_table) with
      | Some (_, t0), Some (_, t1) ->
        row "%-10s gain: %.2fx@." "" (t1 /. t0)
      | _ -> ()))
    budgets_gib

(* E7: recomputation statistics. *)
let e7 () =
  heading "E7" "recomputation statistics";
  row "%-14s %-18s %9s %8s %12s %12s %10s@." "model" "policy" "mirrored"
    "clones" "claimed" "stash-left" "extraFLOPs";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      List.iter
        (fun (inst, report) ->
          let rewritten, _ = Pass.run_instance ~device inst graph in
          row "%-14s %-18s %9d %8d %12s %12s %9.1f%%@." model.Model.name
            report.Pass.planner report.Pass.mirrored_nodes report.Pass.clone_nodes
            (Footprint.human report.Pass.claimed_saving_bytes)
            (Footprint.human report.Pass.optimised_mem.Memplan.stash_bytes)
            (100.0 *. Pass.recompute_flops_ratio rewritten ~original:graph))
        (List.filter
           (fun (inst, _) -> Planner.label inst <> "stash-all")
           (policy_reports model.Model.name graph)))
    (List.filteri (fun i _ -> i < 2) (zoo ()))

(* E8: sensitivity of the reduction factor to sequence length and width. *)
let e8 () =
  heading "E8" "sensitivity: LM reduction factor vs T and H (echo 10%)";
  let run cfg_desc model =
    let graph = training_graph model in
    let _, report = Pass.run_instance ~device (echo 0.10) graph in
    row "%-18s peak %12s -> %12s  (%.2fx at %+.1f%%)@." cfg_desc
      (Footprint.human report.Pass.baseline_mem.Memplan.live_peak_bytes)
      (Footprint.human report.Pass.optimised_mem.Memplan.live_peak_bytes)
      (Pass.reduction report)
      (100.0 *. Pass.overhead report)
  in
  let ts = match !scale with Full -> [ 16; 35; 70 ] | Quick -> [ 8; 16 ] in
  List.iter
    (fun t -> run (Printf.sprintf "T=%d" t) (build_lm ~scale:!scale ~seq_len:t ()))
    ts;
  let hs = match !scale with Full -> [ 256; 650; 1024 ] | Quick -> [ 128; 256 ] in
  List.iter
    (fun h -> run (Printf.sprintf "H=%d" h) (build_lm ~scale:!scale ~hidden:h ()))
    hs

(* E9: generality beyond stacked LSTMs. *)
let e9 () =
  heading "E9" "generality: other cell types and architectures (echo 10%)";
  let models =
    [
      ("peephole-lm", build_lm ~scale:!scale ~cell:Recurrent.Peephole ());
      ("gru-lm", build_lm ~scale:!scale ~cell:Recurrent.Gru ());
      ("rnn-lm", build_lm ~scale:!scale ~cell:Recurrent.Vanilla ());
      ("deepspeech2", snd (graph_of (List.nth (zoo ()) 2)));
      ("transformer", snd (graph_of (List.nth (zoo ()) 3)));
    ]
  in
  row "%-14s %12s %12s %8s %9s@." "model" "baseline" "echo" "factor" "overhead";
  List.iter
    (fun (name, model) ->
      let graph = training_graph model in
      let _, report = Pass.run_instance ~device (echo 0.10) graph in
      row "%-14s %12s %12s %7.2fx %+8.1f%%@." name
        (Footprint.human report.Pass.baseline_mem.Memplan.live_peak_bytes)
        (Footprint.human report.Pass.optimised_mem.Memplan.live_peak_bytes)
        (Pass.reduction report)
        (100.0 *. Pass.overhead report))
    models

(* E10: training correctness — bit-identical losses, falling perplexity. *)
let e10 () =
  heading "E10" "training correctness (tiny LM, compiled-executor training)";
  let cfg =
    {
      Language_model.ptb_default with
      vocab = 150;
      embed = 24;
      hidden = 24;
      layers = 2;
      seq_len = 10;
      batch = 6;
      dropout = 0.2;
    }
  in
  let lm = Language_model.build cfg in
  let graph = training_graph lm.Language_model.model in
  let echo_graph, report = Pass.run_instance ~device (echo 0.10) graph in
  let steps = 30 in
  let stream = Corpus.generate ~seed:5 ~vocab:cfg.Language_model.vocab ~length:40_000 in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [ (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels) ])
      (Corpus.lm_batches stream ~batch:cfg.Language_model.batch
         ~seq_len:cfg.Language_model.seq_len ~steps)
  in
  let train g =
    (Loop.train ~graph:g
       ~params:(Params.bindings lm.Language_model.model.Model.params)
       ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.5 }))
       ~clip_norm:5.0 ~batches ())
      .Loop.losses
  in
  let base = train graph and echo = train echo_graph in
  let max_diff =
    List.fold_left2 (fun acc a b -> Float.max acc (Float.abs (a -. b))) 0.0 base echo
  in
  row "steps=%d  ppl %.1f -> %.1f  (footprint %.2fx)@." steps
    (Loop.perplexity (List.nth base 0))
    (Loop.perplexity (List.nth base (steps - 1)))
    (Pass.reduction report);
  row "max |loss(stash-all) - loss(echo)| over %d steps: %g  [%s]@." steps max_diff
    (if max_diff = 0.0 then "bit-identical" else "MISMATCH")

(* E11: the two estimator ablations. *)
let e11 () =
  heading "E11" "ablations: recompute sharing and transitive accounting";
  let graph, model = graph_of (List.hd (zoo ())) in
  ignore model;
  row "%-22s %8s %9s %14s %14s@." "variant" "factor" "overhead" "claimed" "measured";
  List.iter
    (fun name ->
      let inst = Planner.instantiate ~knobs:[ ("budget", 0.05) ] name in
      let _, report = Pass.run_instance ~device inst graph in
      let measured =
        report.Pass.baseline_mem.Memplan.stash_bytes
        - report.Pass.optimised_mem.Memplan.stash_bytes
      in
      row "%-22s %7.2fx %+8.1f%% %14s %14s@." report.Pass.planner
        (Pass.reduction report)
        (100.0 *. Pass.overhead report)
        (Footprint.human report.Pass.claimed_saving_bytes)
        (Footprint.human measured))
    [ "echo"; "echo-noshare"; "echo-notrans" ]

(* E12: microbenchmark — cost model vs host kernels (Bechamel). *)
let kernel_cases () =
  let rng = Rng.create 99 in
  let mk shape = Tensor.uniform rng shape ~lo:(-1.0) ~hi:1.0 in
  let gemm m k n =
    let a = mk [| m; k |] and b = mk [| k; n |] in
    (Printf.sprintf "gemm %dx%dx%d" m k n,
     (fun () -> ignore (Tensor.matmul a b)),
     Node.matmul (Node.placeholder [| m; k |]) (Node.placeholder [| k; n |]))
  in
  let elementwise n =
    let x = mk [| n |] in
    (Printf.sprintf "sigmoid %d" n,
     (fun () -> ignore (Tensor.sigmoid x)),
     Node.sigmoid (Node.placeholder [| n |]))
  in
  let softmax rows cols =
    let x = mk [| rows; cols |] in
    (Printf.sprintf "softmax %dx%d" rows cols,
     (fun () -> ignore (Tensor.softmax x)),
     Node.softmax (Node.placeholder [| rows; cols |]))
  in
  [
    gemm 32 256 1024;
    gemm 64 512 512;
    gemm 16 128 256;
    elementwise 65536;
    elementwise 8192;
    softmax 64 4096;
    softmax 16 512;
  ]

let bechamel_measure cases =
  let open Bechamel in
  let tests =
    List.map (fun (name, f, _) -> Test.make ~name (Staged.stage f)) cases
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let cfg =
    Benchmark.cfg ~limit:400 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    results []

let e12 () =
  heading "E12" "microbenchmark: cost model vs measured host kernels (Bechamel)";
  let cases = kernel_cases () in
  let measured = bechamel_measure cases in
  row "%-20s %14s %16s@." "kernel" "host ns/run" "model time (us)";
  let pairs =
    List.filter_map
      (fun (name, _, node) ->
        let key = "kernels/" ^ name in
        match List.assoc_opt key measured with
        | Some ns ->
          let predicted = Echo_gpusim.Costmodel.node_time device node in
          row "%-20s %14.0f %16.3f@." name ns (1e6 *. predicted);
          Some (log ns, log predicted)
        | None -> None)
      cases
  in
  if List.length pairs >= 3 then begin
    let xs = List.map fst pairs and ys = List.map snd pairs in
    row "correlation of log(host time) vs log(model time): rho = %.3f@."
      (pearson xs ys)
  end

(* E13: the framework graph-optimisation pipeline (fold + CSE) composed
   with Echo — optimisations real executors run before memory planning. *)
let e13 () =
  heading "E13" "graph optimisation pipeline composed with Echo (LM)";
  let graph, _ = graph_of (List.hd (zoo ())) in
  let optimised, stats = Echo_opt.Pipeline.run graph in
  row "pipeline: %a@." Echo_opt.Pipeline.pp_stats stats;
  row "%-22s %12s %8s %9s@." "variant" "peak" "factor" "overhead";
  let show name g =
    let _, report = Pass.run_instance ~device (echo 0.10) g in
    row "%-22s %12s %7.2fx %+8.1f%%@." name
      (Footprint.human report.Pass.optimised_mem.Memplan.live_peak_bytes)
      (float_of_int (Memplan.plan graph).Memplan.live_peak_bytes
      /. float_of_int report.Pass.optimised_mem.Memplan.live_peak_bytes)
      (100.0 *. Pass.overhead report)
  in
  show "echo on raw graph" graph;
  show "echo after pipeline" optimised

(* E14: kernel-launch anatomy — the nvprof-style profile and how much of
   Echo's recomputation overhead an elementwise-fusing backend would erase. *)
let e14 () =
  heading "E14" "simulated nvprof profile and fusion interaction (LM)";
  let graph, _ = graph_of (List.hd (zoo ())) in
  let tl = Echo_gpusim.Timeline.simulate device graph in
  Echo_gpusim.Timeline.pp_profile Format.std_formatter tl;
  row "launch-overhead share of the iteration: %.1f%%@."
    (100.0 *. Echo_gpusim.Timeline.launch_share device tl);
  let echo_graph, report =
    Pass.run_instance ~device (echo 0.10) graph
  in
  let t0 = Echo_gpusim.Costmodel.graph_time device graph in
  let t1 = Echo_gpusim.Costmodel.graph_time device echo_graph in
  let f0 = Echo_gpusim.Costmodel.fused_graph_time device graph in
  let f1 = Echo_gpusim.Costmodel.fused_graph_time device echo_graph in
  let fusion = Fuse.analyse echo_graph in
  row "fusion groups in the Echo graph: %d (%d launches saved)@."
    (Fuse.group_count fusion)
    (Fuse.interior_count fusion);
  row "recompute overhead unfused: %+.1f%%, with a fusing backend: %+.1f%%@."
    (100.0 *. (t1 -. t0) /. t0)
    (100.0 *. (f1 -. f0) /. f0);
  ignore report

(* E15: per-step execution engines — steps/sec of the reference interpreter
   vs the compiled slot-based executor, sequential and under Domain pools
   of 1/2/4, on a PTB-shaped LM training graph. Every engine's outputs are
   checked bit for bit against the interpreter ([--check] turns a mismatch
   into exit 1); the numbers land in BENCH_E15.json so the perf trajectory
   is tracked across PRs. *)
let e15_violations = ref []

let e15 () =
  heading "E15"
    (Printf.sprintf "execution engines and kernel runtimes (PTB-shape LM, gemm %s)"
       (Tensor.gemm_isa ()));
  let cfg =
    match !scale with
    | Full ->
      { Language_model.ptb_default with vocab = 2000; embed = 64; hidden = 64;
        layers = 2; seq_len = 35; batch = 16 }
    | Quick ->
      { Language_model.ptb_default with vocab = 300; embed = 32; hidden = 32;
        layers = 2; seq_len = 10; batch = 8 }
  in
  let lm = Language_model.build cfg in
  let graph = training_graph lm.Language_model.model in
  let rng = Rng.create 11 in
  let ids node =
    Tensor.init (Node.shape node) (fun _ ->
      float_of_int (Rng.int rng cfg.Language_model.vocab))
  in
  let feeds =
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  let module Executor = Echo_compiler.Executor in
  let c0 = wall () in
  let exe_seq = Executor.compile ~runtime:Parallel.sequential graph in
  let compile_s = wall () -. c0 in
  let interp_outs = Interp.eval graph ~feeds in
  let steps = match !scale with Full -> 10 | Quick -> 3 in
  let steps_per_sec f =
    f () (* warm-up *);
    1.0 /. per_call ~reps:steps f
  in
  let run_exe exe () =
    List.iter (fun (n, t) -> Executor.feed exe n t) feeds;
    Executor.run exe
  in
  row "graph: %d nodes, executor compile %.3f s, footprint %s@."
    (Graph.node_count graph) compile_s
    (Footprint.human (Executor.footprint_bytes exe_seq));
  let json = ref [] in
  let record key sps = json := (key, sps) :: !json in
  let measure label key exe =
    let ok = List.for_all2 bits_equal interp_outs (Executor.eval exe ~feeds) in
    if not ok then
      e15_violations :=
        Printf.sprintf "%s: outputs differ from the interpreter's" label
        :: !e15_violations;
    let sps = steps_per_sec (run_exe exe) in
    row "%-34s %8.2f steps/s  (outputs %s)@." label sps
      (if ok then "bit-identical" else "MISMATCH");
    record key sps;
    sps
  in
  let interp_sps =
    steps_per_sec (fun () -> ignore (Interp.eval graph ~feeds))
  in
  row "%-34s %8.2f steps/s@." "reference interpreter" interp_sps;
  record "interp" interp_sps;
  let seq_sps = measure "executor (seq)" "executor_seq" exe_seq in
  List.iter
    (fun domains ->
      let runtime = Parallel.create ~domains () in
      let exe = Executor.compile ~runtime graph in
      ignore
        (measure
           (Printf.sprintf "executor (%d domain%s)" domains
              (if domains = 1 then "" else "s"))
           (Printf.sprintf "executor_parallel_%dd" domains)
           exe);
      Parallel.shutdown runtime)
    [ 1; 2; 4 ];
  let identical = !e15_violations = [] in
  row "executor vs interp: %.2fx@." (seq_sps /. interp_sps);
  row "all engines bit-identical to the interpreter: %b@." identical;
  record "identical" (if identical then 1.0 else 0.0);
  record_json "E15" (List.rev !json)

(* E16: C kernel micro-bench — GFLOP/s by size for the reference triple
   loop ([Harness.matmul_loops]), the C SIMD micro-kernel (in the build
   [Tensor.gemm_isa] names), and the kernel on a 2-domain pool; plus the
   four transpose variants at the headline size and the four GEMM shapes
   of an NMT training step; then Melem/s of each elementwise C kernel
   (binary, scalar, fused chain, reduce_sum with inner = 1 and 64, strided
   copy) against [Harness]'s reference loops. Each configuration is checked
   bit for bit against its loop first; [--check] turns a mismatch into
   exit 1. *)
let e16_violations = ref []

let e16 () =
  let isa = Tensor.gemm_isa () in
  heading "E16"
    (Printf.sprintf
       "C kernels [%s]: matmul GFLOP/s (reference loops vs kernel vs \
        parallel), elementwise Melem/s (reference loops vs kernel)"
       isa);
  let module I = Tensor.Into in
  let rng = Rng.create 77 in
  let pool2 = Parallel.create ~domains:2 () in
  let json = ref [] in
  let e16_identical what reference dst =
    let ok = bits_equal reference dst in
    if not ok then
      e16_violations :=
        Printf.sprintf "%s: kernel [%s] differs from the reference loops" what
          isa
        :: !e16_violations;
    ok
  in
  let gflops ~m ~n ~k ~reps f =
    f () (* warm-up *);
    2.0 *. float_of_int (m * n * k) /. per_call ~reps f /. 1e9
  in
  let bench_size size =
    let m = size and n = size and k = size in
    let a = Tensor.uniform rng [| m; k |] ~lo:(-1.0) ~hi:1.0 in
    let b = Tensor.uniform rng [| k; n |] ~lo:(-1.0) ~hi:1.0 in
    let dst = Tensor.zeros [| m; n |] in
    let ad = Tensor.to_array a and bd = Tensor.to_array b in
    let reference = Array.make (m * n) 0.0 and scratch = Array.make (m * n) 0.0 in
    matmul_loops ~m ~n ~k ad bd ~dst:reference;
    I.matmul a b ~dst;
    let ok =
      e16_identical (Printf.sprintf "%dx%dx%d" m n k)
        (Tensor.create [| m; n |] reference) dst
    in
    let reps =
      match !scale with
      | Full -> max 1 (50_000_000 / (m * n * k))
      | Quick -> max 1 (10_000_000 / (m * n * k))
    in
    let loops =
      gflops ~m ~n ~k ~reps (fun () -> matmul_loops ~m ~n ~k ad bd ~dst:scratch)
    in
    let kernel = gflops ~m ~n ~k ~reps (fun () -> I.matmul a b ~dst) in
    let parallel2 =
      gflops ~m ~n ~k ~reps (fun () -> I.matmul ~runtime:pool2 a b ~dst)
    in
    row
      "%4dx%4dx%4d  loops %6.2f  kernel %6.2f (%5.2fx)  2-domain %6.2f \
       GFLOP/s  (%s)@."
      m n k loops kernel (kernel /. loops) parallel2
      (if ok then "bit-identical" else "MISMATCH");
    json :=
      (Printf.sprintf "loops_%d" size, loops)
      :: (Printf.sprintf "kernel_%d" size, kernel)
      :: (Printf.sprintf "parallel2_%d" size, parallel2)
      :: (Printf.sprintf "identical_%d" size, if ok then 1.0 else 0.0)
      :: !json
  in
  let sizes = match !scale with Full -> [ 64; 128; 256 ] | Quick -> [ 32; 64; 128 ] in
  List.iter bench_size sizes;
  (* Transpose variants at one size. *)
  let tsize = match !scale with Full -> 256 | Quick -> 64 in
  let a = Tensor.uniform rng [| tsize; tsize |] ~lo:(-1.0) ~hi:1.0 in
  let b = Tensor.uniform rng [| tsize; tsize |] ~lo:(-1.0) ~hi:1.0 in
  let dst = Tensor.zeros [| tsize; tsize |] in
  let ad = Tensor.to_array a and bd = Tensor.to_array b in
  let reference = Array.make (tsize * tsize) 0.0 in
  let scratch = Array.make (tsize * tsize) 0.0 in
  let m = tsize and n = tsize and k = tsize in
  List.iter
    (fun (label, trans_a, trans_b) ->
      matmul_loops ~trans_a ~trans_b ~m ~n ~k ad bd ~dst:reference;
      let reps =
        (match !scale with Full -> 20_000_000 | Quick -> 4_000_000)
        / (m * n * k)
        |> max 1
      in
      let loops =
        gflops ~m ~n ~k ~reps (fun () ->
          matmul_loops ~trans_a ~trans_b ~m ~n ~k ad bd ~dst:scratch)
      in
      I.matmul ~trans_a ~trans_b a b ~dst;
      let ok =
        e16_identical (Printf.sprintf "%dd %s" tsize label)
          (Tensor.create [| m; n |] reference) dst
      in
      let kernel =
        gflops ~m ~n ~k ~reps (fun () -> I.matmul ~trans_a ~trans_b a b ~dst)
      in
      row "%dd %-8s loops %6.2f  kernel %6.2f GFLOP/s (%5.2fx, %s)@." tsize
        label loops kernel (kernel /. loops)
        (if ok then "bit-identical" else "MISMATCH");
      json :=
        (Printf.sprintf "%s_loops_%d" label tsize, loops)
        :: (Printf.sprintf "%s_kernel_%d" label tsize, kernel)
        :: !json)
    [ ("nn", false, false); ("tn", true, false); ("nt", false, true);
      ("tt", true, true) ];
  (* The GEMMs of an NMT step (hidden 64, batch 16, vocabulary 500), in the
     orientation the step runs them: the LSTM gates forward, their input
     gradient and weight gradient, and the output projection. *)
  List.iter
    (fun (label, m, n, k, trans_a, trans_b) ->
      let operand s = Tensor.uniform rng s ~lo:(-1.0) ~hi:1.0 in
      let a = operand (if trans_a then [| k; m |] else [| m; k |]) in
      let b = operand (if trans_b then [| n; k |] else [| k; n |]) in
      let dst = Tensor.zeros [| m; n |] in
      let ad = Tensor.to_array a and bd = Tensor.to_array b in
      let reference = Array.make (m * n) 0.0 in
      let scratch = Array.make (m * n) 0.0 in
      matmul_loops ~trans_a ~trans_b ~m ~n ~k ad bd ~dst:reference;
      I.matmul ~trans_a ~trans_b a b ~dst;
      let ok =
        e16_identical ("nmt " ^ label) (Tensor.create [| m; n |] reference) dst
      in
      let reps =
        (match !scale with Full -> 50_000_000 | Quick -> 10_000_000)
        / (m * n * k)
        |> max 1
      in
      let loops =
        gflops ~m ~n ~k ~reps (fun () ->
          matmul_loops ~trans_a ~trans_b ~m ~n ~k ad bd ~dst:scratch)
      in
      let kernel =
        gflops ~m ~n ~k ~reps (fun () -> I.matmul ~trans_a ~trans_b a b ~dst)
      in
      row
        "nmt %-9s %3dx%3dx%3d  loops %6.2f  kernel %6.2f GFLOP/s (%5.2fx, \
         %s)@."
        label m n k loops kernel (kernel /. loops)
        (if ok then "bit-identical" else "MISMATCH");
      json :=
        (Printf.sprintf "nmt_%s_loops" label, loops)
        :: (Printf.sprintf "nmt_%s_kernel" label, kernel)
        :: (Printf.sprintf "nmt_%s_identical" label, if ok then 1.0 else 0.0)
        :: !json)
    [
      ("gates", 16, 256, 64, false, true);
      ("dinput", 16, 64, 256, false, false);
      ("dweight", 256, 64, 16, true, false);
      ("proj", 320, 500, 64, false, true);
    ];
  (* The elementwise C kernels against [Harness]'s reference loops, on the
     shapes an NMT step runs them: [16 x 64] gate tensors, attention
     scores summed over 20 source positions ([inner] = 1), a [16 x 20 x
     64] context sum ([inner] = 64), and slices of both. Every seventh
     operand element is a NaN of one of two payloads, +-0, +-inf or a
     subnormal, in a different rotation per operand ([shift]) so that the
     two payloads meet: a kernel that keeps the second operand's NaN or
     drops the quiet bit fails its row, as does any one-ulp change. *)
  let specials =
    [| Int64.float_of_bits 0x7FF8000000000001L;
       Int64.float_of_bits 0xFFF8000000000ABCL; 0.0; -0.0; Float.infinity;
       Float.neg_infinity; Int64.float_of_bits 3L |]
  in
  let operand ?(shift = 0) shape =
    let t = Tensor.uniform rng shape ~lo:(-2.0) ~hi:2.0 in
    for i = 0 to Tensor.numel t - 1 do
      if i mod 7 = 3 then
        Tensor.set1 t i specials.(((i / 7) + shift) mod Array.length specials)
    done;
    t
  in
  let melems ~n ~reps f =
    f () (* warm-up *);
    float_of_int n /. per_call ~reps f /. 1e6
  in
  let x = operand [| 16; 64 |] and y = operand ~shift:1 [| 16; 64 |] in
  let z = operand ~shift:2 [| 16; 64 |] in
  let scores = operand [| 16; 20 |] and context = operand [| 16; 20; 64 |] in
  (* The reference loops run over plain arrays, as an OCaml loop over its
     own data would. *)
  let xa = Tensor.to_array x and ya = Tensor.to_array y in
  let za = Tensor.to_array z in
  let scores_a = Tensor.to_array scores and context_a = Tensor.to_array context in
  List.iter
    (fun (label, out_shape, reference, kernel) ->
      let n = Shape.numel out_shape in
      let expect = Array.make n 0.0 and dst = Tensor.zeros out_shape in
      reference expect;
      kernel dst;
      let ok =
        e16_identical ("elementwise " ^ label) (Tensor.create out_shape expect)
          dst
      in
      let reps =
        (match !scale with Full -> 20_000_000 | Quick -> 2_000_000) / n
        |> max 1
      in
      let scratch = Array.make n 0.0 in
      let loops = melems ~n ~reps (fun () -> reference scratch) in
      let kern = melems ~n ~reps (fun () -> kernel dst) in
      row "ew %-13s %6d elems  loops %7.1f  kernel %7.1f Melem/s (%5.2fx, %s)@."
        label n loops kern (kern /. loops)
        (if ok then "bit-identical" else "MISMATCH");
      json :=
        (Printf.sprintf "ew_%s_loops" label, loops)
        :: (Printf.sprintf "ew_%s_kernel" label, kern)
        :: (Printf.sprintf "ew_%s_identical" label, if ok then 1.0 else 0.0)
        :: !json)
    [
      ("add", [| 16; 64 |], (fun dst -> binary_loops `Add xa ya ~dst),
        fun dst -> I.add x y ~dst);
      ("sub", [| 16; 64 |], (fun dst -> binary_loops `Sub xa ya ~dst),
        fun dst -> I.sub x y ~dst);
      ("mul", [| 16; 64 |], (fun dst -> binary_loops `Mul xa ya ~dst),
        fun dst -> I.mul x y ~dst);
      ("div", [| 16; 64 |], (fun dst -> binary_loops `Div xa ya ~dst),
        fun dst -> I.div x y ~dst);
      ("scale", [| 16; 64 |], (fun dst -> scalar_loops `Scale 0.75 xa ~dst),
        fun dst -> I.scale 0.75 x ~dst);
      ("add_scalar", [| 16; 64 |],
        (fun dst -> scalar_loops `Add_scalar (-1.5) xa ~dst),
        fun dst -> I.add_scalar (-1.5) x ~dst);
      ("chain", [| 16; 64 |],
        (fun dst -> chain_loops ~c:0.5 ~k:1.0 xa ya za ~dst),
        fun dst ->
          I.fused
            [| Tensor.f_mul 1; Tensor.f_add 2; Tensor.f_scale 0.5;
               Tensor.f_add_scalar 1.0 |]
            [| x; y; z |] ~dst);
      ("reduce_inner1", [| 16 |],
        (fun dst -> reduce_sum_loops ~outer:16 ~n:20 ~inner:1 scores_a ~dst),
        fun dst -> I.reduce_sum ~axis:1 ~keepdims:false scores ~dst);
      ("reduce_inner64", [| 16; 64 |],
        (fun dst -> reduce_sum_loops ~outer:16 ~n:20 ~inner:64 context_a ~dst),
        fun dst -> I.reduce_sum ~axis:1 ~keepdims:false context ~dst);
      ("slice_16x1", [| 16; 1 |],
        (fun dst ->
          slice_loops ~outer:16 ~n:20 ~inner:1 ~lo:3 ~hi:4 scores_a ~dst),
        fun dst -> I.slice ~axis:1 ~lo:3 ~hi:4 scores ~dst);
      ("slice_wide", [| 16; 8; 64 |],
        (fun dst ->
          slice_loops ~outer:16 ~n:20 ~inner:64 ~lo:2 ~hi:10 context_a ~dst),
        fun dst -> I.slice ~axis:1 ~lo:2 ~hi:10 context ~dst);
    ];
  Parallel.shutdown pool2;
  record_json ~tags:[ ("gemm_isa", isa) ] "E16" (List.rev !json)

(* E17: fault-tolerant training under a shrinking memory budget — a
   simulated OOM fires at step 2 with the device ceiling set to a falling
   fraction of the stash-all arena; the loop re-plans through the
   escalation ladder and finishes the run. Losses must stay bit-identical
   to the unfaulted run (every policy computes the same math); the table
   reports the surviving policy and the wall-clock recovery overhead. *)
let e17 () =
  heading "E17" "fault-tolerant training under shrinking memory budget";
  let cfg =
    {
      Language_model.ptb_default with
      vocab = 150;
      embed = 24;
      hidden = 24;
      layers = 2;
      seq_len = 10;
      batch = 6;
      dropout = 0.2;
    }
  in
  let lm = Language_model.build cfg in
  let graph = training_graph lm.Language_model.model in
  let steps = 8 in
  let stream = Corpus.generate ~seed:5 ~vocab:cfg.Language_model.vocab ~length:40_000 in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [ (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels) ])
      (Corpus.lm_batches stream ~batch:cfg.Language_model.batch
         ~seq_len:cfg.Language_model.seq_len ~steps)
  in
  let train ?faults ?on_event () =
    Loop.train ~graph
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.5 }))
      ~clip_norm:5.0 ?faults ?on_event ~batches ()
  in
  let t0 = wall () in
  let clean = train () in
  let t_clean = Float.max (wall () -. t0) 1e-9 in
  let baseline_arena =
    Echo_compiler.Executor.footprint_bytes
      (Echo_compiler.Pipeline.executor (Echo_compiler.Pipeline.compile_graph graph))
  in
  row "baseline arena %s; %d steps, OOM injected at step 2@."
    (Footprint.human baseline_arena) steps;
  row "%-8s %10s  %-18s %14s %10s@." "budget" "bytes" "survivor" "max|dloss|"
    "time";
  let json = ref [] in
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int baseline_arena) in
      let survivor = ref "stash-all (fits)" in
      let faults =
        Echo_runtime.Fault.of_specs
          [ { Echo_runtime.Fault.step = 2;
              kind = Echo_runtime.Fault.Oom { budget_bytes = budget } } ]
      in
      let on_event = function
        | Echo_runtime.Event.Replan { planner; _ } -> survivor := planner
        | _ -> ()
      in
      (match
         let t1 = wall () in
         let r = train ~faults ~on_event () in
         (r, Float.max (wall () -. t1) 1e-9)
       with
      | r, dt ->
        let max_diff =
          List.fold_left2
            (fun acc a b -> Float.max acc (Float.abs (a -. b)))
            0.0 clean.Loop.losses r.Loop.losses
        in
        row "%-8s %10d  %-18s %14g %9.2fx@."
          (Printf.sprintf "%.1f%%" (100.0 *. frac))
          budget !survivor max_diff (dt /. t_clean);
        json :=
          (Printf.sprintf "overhead_%.0f" (1000.0 *. frac), dt /. t_clean)
          :: (Printf.sprintf "survived_%.0f" (1000.0 *. frac), 1.0)
          :: !json
      | exception Echo_compiler.Executor.Budget_exceeded _ ->
        row "%-8s %10d  %-18s %14s %10s@."
          (Printf.sprintf "%.1f%%" (100.0 *. frac))
          budget "none (hard OOM)" "-" "-";
        json :=
          (Printf.sprintf "survived_%.0f" (1000.0 *. frac), 0.0) :: !json))
    [ 1.02; 0.98; 0.92; 0.87; 0.855; 0.84 ];
  record_json "E17" (List.rev !json)

(* E18: the parallelism × fusion wall-clock grid — ms/step for every
   (fuse ∈ {off,on}) × (domains ∈ {1,2,4}) point across LM (the E15
   configuration), NMT and DS2 training graphs, plus the structural
   numbers (groups, interiors, instruction counts, arenas) and the
   simulated-GPU launch savings. Every executor on the grid is checked
   bitwise against the sequential unfused reference before timing.
   ms/step is the minimum over interleaved rounds, so a scheduler hiccup
   in one round cannot brand a configuration slow. Two invariants are
   asserted per model and recorded in BENCH_E18.json ([--check] turns a
   violation into exit 1):
   - monotone: wall-clock never rises as domains grow 1 -> 2 -> 4
     (the work gate + hardware cap mean fan-out only engages when it
     pays, so extra domains can only help or leave the code path
     unchanged);
   - fused_ok: fused is never slower than unfused beyond noise at any
     domain count. *)
let e18_violations = ref []

let e18 () =
  heading "E18" "parallelism-aware fusion grid (fuse x domains, ms/step)";
  let module Executor = Echo_compiler.Executor in
  let json = ref [] in
  let record key v = json := (key, v) :: !json in
  let bench tag ~id_bound model =
    let graph = training_graph model in
    let rng = Rng.create 11 in
    let feeds =
      List.map
        (fun node ->
          match Shape.rank (Node.shape node) with
          | 4 -> (node, Tensor.normal rng (Node.shape node) ~mean:0.0 ~std:1.0)
          | _ ->
            ( node,
              Tensor.init (Node.shape node) (fun _ ->
                  float_of_int (Rng.int rng id_bound)) ))
        model.Model.placeholders
      @ Params.bindings model.Model.params
    in
    let fusion = Fuse.analyse graph in
    let fused_plan = Memplan.plan ~fusion graph in
    (* One executor per grid point. d = 1 is the sequential runtime;
       larger counts run on Domain pools (hardware-capped, so on a small
       machine the extra configurations execute the very same sequential
       code — the grid then proves fan-out is never *engaged* at a loss
       rather than measuring a speedup). *)
    let domain_counts = [ 1; 2; 4 ] in
    (* Independently compiled replicas per point: the minimum across
       replicas cancels allocation-placement luck (executors running the
       same instructions can differ by up to ~10% purely from where their
       arenas landed in the heap). *)
    let replicas = 3 in
    let grid =
      List.map
        (fun d ->
          let runtime =
            if d = 1 then Parallel.sequential else Parallel.create ~domains:d ()
          in
          ( d,
            runtime,
            List.init replicas (fun _ -> Executor.compile ~runtime graph),
            List.init replicas (fun _ ->
                Executor.compile ~runtime ~plan:fused_plan graph)
          ))
        domain_counts
    in
    let unfused_seq, fused_seq =
      match grid with
      | (_, _, off :: _, on :: _) :: _ -> (off, on)
      | _ -> assert false
    in
    let reference = Executor.eval unfused_seq ~feeds in
    let identical =
      List.for_all
        (fun (_, _, offs, ons) ->
          List.for_all
            (fun exe ->
              List.for_all2 Tensor.equal reference (Executor.eval exe ~feeds))
            (offs @ ons))
        grid
    in
    row
      "%-5s %4d nodes, %3d groups fusing %3d interiors; instrs %4d -> %4d, \
       arena %s -> %s (outputs %s)@."
      tag (Graph.node_count graph) (Fuse.group_count fusion)
      (Fuse.interior_count fusion)
      (Executor.active_instruction_count unfused_seq)
      (Executor.active_instruction_count fused_seq)
      (Footprint.human (Executor.footprint_bytes unfused_seq))
      (Footprint.human (Executor.footprint_bytes fused_seq))
      (if identical then "bit-identical" else "MISMATCH");
    record (tag ^ "_groups") (float_of_int (Fuse.group_count fusion));
    record (tag ^ "_interiors") (float_of_int (Fuse.interior_count fusion));
    record
      (tag ^ "_instrs_off")
      (float_of_int (Executor.active_instruction_count unfused_seq));
    record
      (tag ^ "_instrs_on")
      (float_of_int (Executor.active_instruction_count fused_seq));
    record
      (tag ^ "_arena_off")
      (float_of_int (Executor.footprint_bytes unfused_seq));
    record
      (tag ^ "_arena_on")
      (float_of_int (Executor.footprint_bytes fused_seq));
    record (tag ^ "_identical") (if identical then 1.0 else 0.0);
    (* The arena without in-place transfers shows the elision itself
       (with best-fit reuse and in-place transfers on, chains already
       recycle to ~one range, so the default arena is equal rather than
       smaller); the
       simulated device time shows the launch savings that motivate fusion
       on a real GPU, where every interior also costs a kernel launch and a
       memory round-trip. *)
    let noinplace fusion =
      (Memplan.plan ~inplace:false ?fusion graph).Memplan.arena_bytes
    in
    let arena_off = noinplace None and arena_on = noinplace (Some fusion) in
    let sim_off = Echo_gpusim.Costmodel.graph_time device graph in
    let sim_on = Echo_gpusim.Costmodel.fused_graph_time device graph in
    row
      "%-5s pool-less arena %s -> %s (-%.1f%%); simulated device %.2f -> \
       %.2f ms/iter (%.2fx)@."
      tag
      (Footprint.human arena_off)
      (Footprint.human arena_on)
      (100.0 *. float_of_int (arena_off - arena_on) /. float_of_int arena_off)
      (ms sim_off) (ms sim_on) (sim_off /. sim_on);
    record (tag ^ "_arena_noinplace_off") (float_of_int arena_off);
    record (tag ^ "_arena_noinplace_on") (float_of_int arena_on);
    record (tag ^ "_sim_ms_off") (ms sim_off);
    record (tag ^ "_sim_ms_on") (ms sim_on);
    record (tag ^ "_sim_speedup") (sim_off /. sim_on);
    (* Interleaved measurement: every grid point timed once per round,
       minimum ms/step kept across rounds. Step counts are calibrated
       per point so every measurement window is wide enough to dwarf
       timer granularity and scheduler noise — on a loaded 1-core box a
       sub-millisecond window scatters by tens of percent, which would
       drown the very invariants the grid asserts. *)
    let rounds, window_ms =
      match !scale with Full -> (10, 100.0) | Quick -> (20, 20.0)
    in
    let run_steps exe steps =
      let run () =
        List.iter (fun (n, t) -> Executor.feed exe n t) feeds;
        Executor.run exe
      in
      1000.0 *. per_call ~reps:steps run
    in
    let calibrate exe =
      ignore (run_steps exe 1) (* warm-up *);
      let once = run_steps exe 1 in
      max 1 (min 2_000 (int_of_float (ceil (window_ms /. Float.max once 1e-6))))
    in
    (* Compact before timing anything: compilation and the bit-identity
       sweep leave the heap ragged, and where an arena happens to sit can
       swing a point by ~10% — compaction gives every executor the same
       fresh, dense placement. *)
    Gc.compact ();
    let calibrated =
      List.map
        (fun (d, _, offs, ons) ->
          (d, offs, calibrate (List.hd offs), ons, calibrate (List.hd ons)))
        grid
    in
    let samples = Hashtbl.create 16 in
    let add key ms =
      Hashtbl.replace samples key
        (ms :: (try Hashtbl.find samples key with Not_found -> []))
    in
    for round = 1 to rounds do
      (* Alternate traversal direction so no grid point always pays the
         same neighbourhood effects (GC phase, cache state). *)
      let pts = if round land 1 = 0 then List.rev calibrated else calibrated in
      List.iter
        (fun (d, offs, off_steps, ons, on_steps) ->
          let min_of exes steps =
            List.fold_left
              (fun acc exe -> Float.min acc (run_steps exe steps))
              infinity exes
          in
          add (d, false) (min_of offs off_steps);
          add (d, true) (min_of ons on_steps))
        pts
    done;
    (* All of a round's samples land within a fraction of a second of each
       other, but a busy machine drifts by tens of percent across the
       whole run — so compare points {e within} rounds: normalize each
       round by its own (d=1, unfused) sample, take the median ratio over
       rounds (robust to bursts hitting single rounds), and report it on
       the best reference time. Every key collects exactly one sample per
       round, so index [i] of every list is the same round. *)
    let refs = Array.of_list (Hashtbl.find samples (1, false)) in
    let base = Array.fold_left Float.min infinity refs in
    let ms_of d fuse =
      let xs = Array.of_list (Hashtbl.find samples (d, fuse)) in
      let ratios = Array.init (Array.length xs) (fun i -> xs.(i) /. refs.(i)) in
      Array.sort compare ratios;
      ratios.(Array.length ratios / 2) *. base
    in
    List.iter
      (fun (d, _, _, _) ->
        let off_ms = ms_of d false and on_ms = ms_of d true in
        row "%-5s d=%d  unfused %9.3f  fused %9.3f ms/step  (%.2fx)@." tag d
          off_ms on_ms (off_ms /. on_ms);
        record (Printf.sprintf "%s_d%d_off_ms" tag d) off_ms;
        record (Printf.sprintf "%s_d%d_on_ms" tag d) on_ms)
      grid;
    (* Invariants. Paired per-round ratios cancel machine drift, but each
       executor keeps one heap placement for the whole run, and identical
       instruction streams have been measured up to ~10% apart here from
       placement alone — so allow 10% noise. A genuine regression (fan-out
       engaged at a loss, or a fused kernel slower than its members) costs
       a constant factor and clears this easily. *)
    let tol = 1.10 in
    let monotone = ref true and fused_ok = ref true in
    let ds = List.map (fun (d, _, _, _) -> d) grid in
    List.iter
      (fun fuse ->
        ignore
          (List.fold_left
             (fun prev d ->
               let ms = ms_of d fuse in
               (match prev with
               | Some (pd, pms) when ms > pms *. tol ->
                 monotone := false;
                 e18_violations :=
                   Printf.sprintf
                     "%s %s: %.3f ms/step at %d domains > %.3f at %d" tag
                     (if fuse then "fused" else "unfused")
                     ms d pms pd
                   :: !e18_violations
               | _ -> ());
               Some (d, ms))
             None ds))
      [ false; true ];
    List.iter
      (fun d ->
        let off_ms = ms_of d false and on_ms = ms_of d true in
        if on_ms > off_ms *. tol then begin
          fused_ok := false;
          e18_violations :=
            Printf.sprintf "%s: fused %.3f ms/step > unfused %.3f at %d domains"
              tag on_ms off_ms d
            :: !e18_violations
        end)
      ds;
    row "%-5s monotone over domains: %b; fused never slower: %b@." tag
      !monotone !fused_ok;
    record (tag ^ "_monotone") (if !monotone then 1.0 else 0.0);
    record (tag ^ "_fused_ok") (if !fused_ok then 1.0 else 0.0);
    List.iter
      (fun (d, runtime, _, _) -> if d > 1 then Parallel.shutdown runtime)
      grid;
    ms_of 1 false /. ms_of 1 true
  in
  let lm_cfg =
    match !scale with
    | Full ->
      { Language_model.ptb_default with vocab = 2000; embed = 64; hidden = 64;
        layers = 2; seq_len = 35; batch = 16 }
    | Quick ->
      { Language_model.ptb_default with vocab = 300; embed = 32; hidden = 32;
        layers = 2; seq_len = 10; batch = 8 }
  in
  let nmt_cfg =
    match !scale with
    | Full ->
      { Nmt.gnmt_like with src_vocab = 1000; tgt_vocab = 1000; embed = 48;
        hidden = 48; enc_layers = 2; dec_layers = 2; src_len = 12;
        tgt_len = 12; batch = 8 }
    | Quick ->
      { Nmt.gnmt_like with src_vocab = 200; tgt_vocab = 200; embed = 16;
        hidden = 16; enc_layers = 1; dec_layers = 1; src_len = 6; tgt_len = 6;
        batch = 4 }
  in
  let ds2_cfg =
    match !scale with
    | Full ->
      { Deepspeech.ds2_like with Deepspeech.batch = 2; time = 24;
        rnn_hidden = 48; rnn_layers = 2; classes = 20 }
    | Quick ->
      { Deepspeech.ds2_like with Deepspeech.batch = 1; time = 12; freq = 8;
        conv_channels = 2; rnn_hidden = 16; rnn_layers = 1; classes = 10 }
  in
  let lm_speedup =
    bench "lm" ~id_bound:(min 20 lm_cfg.Language_model.vocab)
      (Language_model.build lm_cfg).Language_model.model
  in
  ignore
    (bench "nmt"
       ~id_bound:(min 20 (min nmt_cfg.Nmt.src_vocab nmt_cfg.Nmt.tgt_vocab))
       (Nmt.build nmt_cfg).Nmt.model);
  ignore
    (bench "ds2"
       ~id_bound:(min 20 ds2_cfg.Deepspeech.classes)
       (Deepspeech.build ds2_cfg).Deepspeech.model);
  row "LM sequential fused speedup: %.2fx@." lm_speedup;
  record_json ~path:"BENCH_E18.json" "E18" (List.rev !json)

(* E19: the footprint-vs-overhead frontier of every planner in the
   registry, over the model zoo. For each (model, planner) point: rewrite
   through the registry, record live-peak footprint, reduction factor and
   simulated time overhead, then fuse and record the arena the executable
   runs in — persistent + best-fit slab + workspace — and its gap to the
   live peak. Each fused plan's slab layout is proven with Echo-verify's
   range checker. Where the arena is at most [e19_executed_bytes] (every
   quick config), the executor is compiled from that plan and its
   footprint must equal the bytes it allocated; a full-scale arena of
   hundreds of MiB would be allocated just to be counted. On graphs small
   enough for it, the OLLA-style annealer ({!Arena_solver.solve}) places
   the stash-all row's unfused graph, and its slab is compared with the
   greedy walk's, which it must never exceed: a placement comparison, not
   a layout any executor runs. [--check] turns a failed range check, a
   footprint that differs from the allocation or a solve above the greedy
   slab into exit 1. Numbers land in BENCH_E19.json so the frontier is
   tracked across PRs. *)
let e19_violations = ref []
let e19_executed_bytes = 64 * 1024 * 1024

let e19 () =
  heading "E19" "planner frontier over the zoo: live peak vs executed arena";
  let module Pipeline = Echo_compiler.Pipeline in
  let module Executor = Echo_compiler.Executor in
  let json = ref [] in
  let record key v = json := (key, v) :: !json in
  let violation fmt =
    Format.kasprintf (fun m -> e19_violations := m :: !e19_violations) fmt
  in
  row "%-14s %-18s %10s %8s %9s %10s %7s %7s@." "model" "planner" "peak"
    "factor" "overhead" "arena" "gap" "verify";
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      let name = model.Model.name in
      let optimized =
        Pipeline.optimize ~enabled:false (Pipeline.of_training_graph ~name graph)
      in
      (* The annealed solver is quadratic per move; run it only on graphs
         the quick configs produce. *)
      let small = Graph.node_count graph < 10_000 in
      List.iter
        (fun planner ->
          let inst = Planner.instantiate planner.Planner.name in
          let label = Planner.label inst in
          let rw = Pipeline.rewrite ~device ~planner:inst optimized in
          let report = rw.Pipeline.report in
          let key k = Printf.sprintf "%s/%s/%s" name label k in
          let peak = report.Pass.optimised_mem.Memplan.live_peak_bytes in
          let planned = Pipeline.plan rw in
          let fused = Pipeline.fuse ~enabled:true planned in
          let plan = fused.Pipeline.fused_memplan in
          let arena = plan.Memplan.arena_bytes in
          if arena <= e19_executed_bytes then begin
            let exe =
              Executor.compile ~runtime:Parallel.sequential ~plan
                fused.Pipeline.graph
            in
            let footprint = Executor.footprint_bytes exe
            and allocated = Executor.allocated_bytes exe in
            if footprint <> allocated then
              violation "%s/%s: footprint %d B but the executor allocated %d B"
                name label footprint allocated
          end;
          let lint =
            Echo_analysis.Verify.check_ranges ?fusion:fused.Pipeline.fusion
              fused.Pipeline.graph (Assign.of_plan fused.Pipeline.graph plan)
          in
          let ok = not (Echo_diag.Report.has_errors lint) in
          if not ok then
            violation "%s/%s: the executed slab layout fails the range check"
              name label;
          record (key "peak_bytes") (float_of_int peak);
          record (key "factor") (Pass.reduction report);
          record (key "overhead") (Pass.overhead report);
          record (key "arena_bytes") (float_of_int arena);
          record (key "verified") (if ok then 1.0 else 0.0);
          if small && label = "stash-all" then begin
            let solved = Arena_solver.solve planned.Pipeline.graph in
            let greedy = Assign.of_plan planned.Pipeline.graph planned.Pipeline.memplan in
            let saving = Arena_solver.improvement ~greedy ~solved in
            let le = Assign.arena_size solved <= Assign.arena_size greedy in
            if not le then
              violation "%s/%s: the solved slab (%d B) exceeds the greedy one (%d B)"
                name label (Assign.arena_size solved) (Assign.arena_size greedy);
            record (key "le_greedy") (if le then 1.0 else 0.0);
            record (key "saving_vs_greedy") saving;
            row "%-14s %-18s unfused slab, solver vs greedy: %s vs %s (%.2f%% saved)@."
              name label
              (Footprint.human (Assign.arena_size solved))
              (Footprint.human (Assign.arena_size greedy))
              (100.0 *. saving)
          end;
          row "%-14s %-18s %10s %7.2fx %+8.1f%% %10s %+6.1f%% %7s@." name label
            (Footprint.human peak) (Pass.reduction report)
            (100.0 *. Pass.overhead report)
            (Footprint.human arena)
            (100.0 *. float_of_int (arena - plan.Memplan.live_peak_bytes)
             /. float_of_int plan.Memplan.live_peak_bytes)
            (if ok then "ok" else "FAIL"))
        (Planner.all ()))
    (zoo ());
  record_json ~path:"BENCH_E19.json" "E19" (List.rev !json)

(* E20: fault-injection campaign over the LM zoo — the resilience report.
   Full scale sweeps every zoo model x every campaign planner, fused and
   unfused, through the ten-fault menu (320 configurations); --quick runs
   the mini preset (one model, three planners, 60 configurations). The
   whole report is a pure function of the spec seed, so BENCH_E20.json is
   bit-reproducible run to run and at every domain count. *)
let e20 () =
  heading "E20" "fault-injection campaign: per-(model x planner) resilience";
  let module Campaign = Echo_campaign.Campaign in
  let spec =
    Campaign.default_spec (match !scale with Full -> "full" | Quick -> "mini")
  in
  let report = Campaign.run spec in
  print_string (Campaign.summary report);
  record_json ~path:"BENCH_E20.json" "E20" (Campaign.json_fields report)

(* E21: the serve stack — cold vs cache-hit compile latency over the
   engine's model zoo, and same-shape eval batching throughput, both
   driven through the production [Engine] code path (protocol parse,
   cache-key computation, plan-cache lookup — exactly what a socket
   client pays minus the socket). Two claims are measured and recorded
   in BENCH_E21.json:
   - a cache hit answers a compile request >= 10x faster than the cold
     compile it short-circuits, for every model the engine serves;
   - a stacked batch-of-8 eval drain clears >= 2x the serial request
     throughput, with every loss bit-identical to serial execution at
     1, 2 and 4 domains. *)
let e21 () =
  heading "E21" "serve: plan-cache hit latency and same-shape eval batching";
  let module Engine = Echo_serve.Engine in
  let json = ref [] in
  let record key v = json := (key, v) :: !json in
  let hidden, seq_len, batch, vocab =
    match !scale with Full -> (64, 35, 16, 2000) | Quick -> (32, 10, 8, 300)
  in
  row "%-14s %12s %12s %10s@." "model" "cold (ms)" "warm (ms)" "speedup";
  let all_fast = ref true in
  List.iter
    (fun model ->
      let engine = Engine.create () in
      let req =
        Printf.sprintf "compile model=%s hidden=%d seq_len=%d batch=%d vocab=%d"
          model hidden seq_len batch vocab
      in
      let t0 = wall () in
      let first = Engine.exec engine req in
      let cold = wall () -. t0 in
      if String.length first < 2 || String.sub first 0 2 <> "ok" then
        failwith ("E21: cold compile failed: " ^ first);
      (* Warm latency: best of [reps] hits — the steady-state answer time
         of a compile request served from the cache. *)
      let reps = 20 in
      let warm = ref infinity in
      for _ = 1 to reps do
        let t1 = wall () in
        ignore (Engine.exec engine req);
        warm := Float.min !warm (wall () -. t1)
      done;
      let speedup = cold /. Float.max !warm 1e-9 in
      if speedup < 10.0 then all_fast := false;
      row "%-14s %12.3f %12.3f %9.1fx@." model (ms cold) (ms !warm) speedup;
      record (model ^ "_cold_ms") (ms cold);
      record (model ^ "_warm_ms") (ms !warm);
      record (model ^ "_speedup") speedup)
    [ "lm"; "peephole-lm"; "gru-lm"; "rnn-lm" ];
  row "cache hit >= 10x faster than cold everywhere: %b@." !all_fast;
  record "hit_10x" (if !all_fast then 1.0 else 0.0);
  (* Same-shape eval batching: one drain of 8 identical-shape requests
     against the same requests answered one at a time, on fresh engines
     per domain count. The last round's answers are compared bitwise. *)
  let rng = Rng.create 3 in
  let eval_lines =
    List.init 8 (fun _ ->
        let toks =
          List.init (seq_len + 1) (fun _ -> string_of_int (Rng.int rng vocab))
        in
        Printf.sprintf "eval hidden=%d vocab=%d tokens=%s" hidden vocab
          (String.concat "," toks))
  in
  let loss_of resp =
    Scanf.sscanf resp "ok loss=%h batched=%d" (fun l k -> (l, k))
  in
  let identical_everywhere = ref true in
  List.iter
    (fun domains ->
      let runtime = Parallel.create ~domains () in
      let batched_engine = Engine.create ~runtime () in
      let serial_engine = Engine.create ~runtime () in
      (* Warm-up: the first drains compile the batch-8 and batch-1 plans,
         so the timed rounds measure execution, not compilation. *)
      ignore (Engine.exec_all batched_engine eval_lines);
      List.iter (fun l -> ignore (Engine.exec serial_engine l)) eval_lines;
      let rounds = match !scale with Full -> 20 | Quick -> 5 in
      let batched_round =
        per_call ~reps:rounds (fun () ->
            ignore (Engine.exec_all batched_engine eval_lines))
      in
      let serial_round =
        per_call ~reps:rounds (fun () ->
            List.iter (fun l -> ignore (Engine.exec serial_engine l)) eval_lines)
      in
      let n = float_of_int (List.length eval_lines) in
      let b_rps = n /. batched_round and s_rps = n /. serial_round in
      let batched = Engine.exec_all batched_engine eval_lines in
      let serial = List.map (Engine.exec serial_engine) eval_lines in
      let identical =
        List.for_all2
          (fun b s ->
            let bl, bk = loss_of b and sl, _ = loss_of s in
            bk = List.length eval_lines
            && Int64.equal (Int64.bits_of_float bl) (Int64.bits_of_float sl))
          batched serial
      in
      if not identical then identical_everywhere := false;
      row "eval d=%d  serial %8.1f req/s  batched %8.1f req/s  (%.2fx, %s)@."
        domains s_rps b_rps (b_rps /. s_rps)
        (if identical then "bit-identical" else "MISMATCH");
      record (Printf.sprintf "eval_serial_rps_d%d" domains) s_rps;
      record (Printf.sprintf "eval_batched_rps_d%d" domains) b_rps;
      record (Printf.sprintf "eval_speedup_d%d" domains) (b_rps /. s_rps);
      record
        (Printf.sprintf "eval_identical_d%d" domains)
        (if identical then 1.0 else 0.0);
      Parallel.shutdown runtime)
    [ 1; 2; 4 ];
  row "batched bit-identical to serial at every domain count: %b@."
    !identical_everywhere;
  record "batched_identical" (if !identical_everywhere then 1.0 else 0.0);
  record_json ~path:"BENCH_E21.json" "E21" (List.rev !json)

(* E22: the race-verify layer — what certifying a plan costs and what
   running sanitized costs. Two tables are measured and recorded in
   BENCH_E22.json:
   - static gate: every zoo model x campaign planner x fusion setting is
     compiled (on a forced 2-domain fan-out pool, so the partition proofs
     actually see parts > 1) and pushed through [Pipeline.race_verify];
     the worst-case check time per model is the latency a self-certifying
     compile pays. [--check] turns any error finding into exit 1 — the
     clean-matrix gate of the race-verify work;
   - sanitizer overhead: LM training-step wall-clock plain vs Cells-mode
     vs Full-mode shadow memory at 1/2/4 domains, with every sanitized
     executor's outputs checked bitwise against the plain sequential
     reference (the sanitizer observes, never perturbs). The model is kept
     deliberately small: Full mode diffs every non-destination buffer at
     every instruction, so its cost scales with instrs x arena cells and
     a production-size model would measure patience, not overhead. *)
let e22_violations = ref []

let e22 () =
  heading "E22" "race-verify: static-check time and sanitizer overhead";
  let module Executor = Echo_compiler.Executor in
  let module Pipeline = Echo_compiler.Pipeline in
  let module Sanitize = Echo_analysis.Sanitize in
  let module Report = Echo_diag.Report in
  let json = ref [] in
  let record key v = json := (key, v) :: !json in
  let planners =
    match !scale with
    | Full -> [ "stash-all"; "checkpoint-sqrt"; "dp-bptt"; "echo" ]
    | Quick -> [ "stash-all"; "checkpoint-sqrt"; "echo" ]
  in
  (* Oversubscribed 2-domain pool with the work gate open: fan-out (and
     therefore row partitioning) engages even on a 1-core CI box. *)
  let fanout =
    Parallel.create ~domains:2 ~oversubscribe:true ~min_fanout_work:0 ()
  in
  row "%-14s %8s %9s %11s@." "model" "configs" "findings" "check (ms)";
  let clean = ref true in
  List.iter
    (fun entry ->
      let graph, model = graph_of entry in
      let tag = model.Model.name in
      let configs = ref 0 and findings = ref 0 and worst = ref 0.0 in
      List.iter
        (fun planner ->
          let inst = Planner.instantiate planner in
          List.iter
            (fun fuse ->
              incr configs;
              let exe =
                Pipeline.compile_graph ~planner:inst ~runtime:fanout ~fuse
                  graph
              in
              let t0 = wall () in
              let report = Pipeline.race_verify exe in
              worst := Float.max !worst (wall () -. t0);
              let errs = Report.error_count report in
              findings := !findings + errs;
              if errs > 0 then begin
                clean := false;
                e22_violations :=
                  Printf.sprintf "%s/%s/%s: %d race finding(s)" tag planner
                    (if fuse then "fused" else "unfused")
                    errs
                  :: !e22_violations
              end)
            [ false; true ])
        planners;
      row "%-14s %8d %9d %11.2f@." tag !configs !findings (ms !worst);
      record (tag ^ "_configs") (float_of_int !configs);
      record (tag ^ "_findings") (float_of_int !findings);
      record (tag ^ "_check_ms") (ms !worst))
    (zoo ());
  Parallel.shutdown fanout;
  row "static race check clean everywhere: %b@." !clean;
  record "static_clean" (if !clean then 1.0 else 0.0);
  (* Sanitizer overhead grid. *)
  let lm_cfg =
    match !scale with
    | Full ->
      { Language_model.ptb_default with vocab = 120; embed = 24; hidden = 24;
        layers = 2; seq_len = 8; batch = 4 }
    | Quick ->
      { Language_model.ptb_default with vocab = 80; embed = 16; hidden = 16;
        layers = 1; seq_len = 6; batch = 2 }
  in
  let model = (Language_model.build lm_cfg).Language_model.model in
  let graph = training_graph model in
  let rng = Rng.create 11 in
  let feeds =
    List.map
      (fun node ->
        match Shape.rank (Node.shape node) with
        | 4 -> (node, Tensor.normal rng (Node.shape node) ~mean:0.0 ~std:1.0)
        | _ ->
          ( node,
            Tensor.init (Node.shape node) (fun _ ->
                float_of_int (Rng.int rng (min 20 lm_cfg.Language_model.vocab)))
          ))
      model.Model.placeholders
    @ Params.bindings model.Model.params
  in
  let plan = Memplan.plan ~fusion:(Fuse.analyse graph) graph in
  let steps, rounds = match !scale with Full -> (5, 3) | Quick -> (3, 2) in
  let reference = Executor.eval (Executor.compile ~plan graph) ~feeds in
  row "%-4s %10s %10s %10s %9s %9s %14s@." "" "plain" "cells" "full"
    "cells-x" "full-x" "outputs";
  let identical_everywhere = ref true in
  List.iter
    (fun d ->
      let runtime =
        if d = 1 then Parallel.sequential else Parallel.create ~domains:d ()
      in
      let time_and_check mode =
        let exe = Executor.compile ~runtime ~plan ~sanitize:mode graph in
        let same =
          List.for_all2 Tensor.equal reference (Executor.eval exe ~feeds)
        in
        let step () =
          List.iter (fun (n, t) -> Executor.feed exe n t) feeds;
          Executor.run exe
        in
        step () (* warm-up *);
        let best = ref infinity in
        for _ = 1 to rounds do
          best := Float.min !best (1000.0 *. per_call ~reps:steps step)
        done;
        (!best, same)
      in
      let plain, plain_same = time_and_check Sanitize.Off in
      let cells, cells_same = time_and_check Sanitize.Cells in
      let full, full_same = time_and_check Sanitize.Full in
      let identical = plain_same && cells_same && full_same in
      if not identical then identical_everywhere := false;
      row "d=%-2d %10.3f %10.3f %10.3f %8.2fx %8.2fx %14s@." d plain cells
        full (cells /. plain) (full /. plain)
        (if identical then "bit-identical" else "MISMATCH");
      record (Printf.sprintf "lm_d%d_plain_ms" d) plain;
      record (Printf.sprintf "lm_d%d_cells_ms" d) cells;
      record (Printf.sprintf "lm_d%d_full_ms" d) full;
      record (Printf.sprintf "lm_d%d_cells_overhead" d) (cells /. plain);
      record (Printf.sprintf "lm_d%d_full_overhead" d) (full /. plain);
      record
        (Printf.sprintf "lm_d%d_identical" d)
        (if identical then 1.0 else 0.0);
      if d > 1 then Parallel.shutdown runtime)
    [ 1; 2; 4 ];
  if not !identical_everywhere then begin
    e22_violations :=
      "sanitized LM outputs diverged from the plain sequential reference"
      :: !e22_violations
  end;
  row "sanitized runs bit-identical to plain everywhere: %b@."
    !identical_everywhere;
  record "sanitize_identical" (if !identical_everywhere then 1.0 else 0.0);
  record_json ~path:"BENCH_E22.json" "E22" (List.rev !json)

(* E24: compile anatomy. Every quick-zoo model x registered planner goes
   through the compile stages the way [Pipeline] chains them, and each
   stage is timed with [per_call] beside the number of graphs
   [Graph.create] built per call; differentiate and optimize run once per
   model. Beside the times stand the exact facts the stages produce: the
   node counts of the training, optimized and rewritten graphs, the clone
   count, the fused arena, the fused groups and the verify/race-verify
   error findings. The facts are a pure function of the zoo, so they are
   recorded as strings in BENCH_E24.json and [--check] compares a run with
   that record (exit 1 on any difference) instead of rewriting it. The
   quick zoo is used at either scale, which keeps the check cheap enough
   for [dune runtest]. *)
let e24_violations = ref []
let e24_record = "BENCH_E24.json"

let e24 () =
  heading "E24" "compile anatomy over the quick zoo: ms and Graph.create calls per stage";
  let module Pipeline = Echo_compiler.Pipeline in
  let module Executor = Echo_compiler.Executor in
  let reps = if !check_mode then 1 else 5 in
  let facts = ref [] and times = ref [] in
  let totals = Hashtbl.create 8 in
  let stage name f =
    let out = ref None in
    let c0 = Graph.created_count () in
    let s = per_call ~reps (fun () -> out := Some (f ())) in
    let creates = (Graph.created_count () - c0) / reps in
    let prev_s, prev_c =
      Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0)
    in
    Hashtbl.replace totals name (prev_s +. s, prev_c + creates);
    (Option.get !out, s, creates)
  in
  let stages = [ "rewrite"; "plan"; "fuse"; "compile"; "verify"; "race" ] in
  row "%-12s %-18s %s %7s %6s %9s %6s %6s@." "model" "planner"
    (String.concat " "
       (List.map (fun st -> Printf.sprintf "%11s" (st ^ " ms/gc")) stages))
    "nodes" "clones" "arena" "groups" "errors";
  List.iter
    (fun (label, lazy_model) ->
      let model = Lazy.force lazy_model in
      let key k = Printf.sprintf "%s/%s" label k in
      let tr, dt, dc =
        stage "differentiate" (fun () ->
            Pipeline.differentiate (Pipeline.of_model model))
      in
      let o, ot, oc = stage "optimize" (fun () -> Pipeline.optimize tr) in
      let training_nodes =
        Graph.node_count tr.Pipeline.autodiff.Echo_autodiff.Grad.graph
      and optimized_nodes = Graph.node_count o.Pipeline.graph in
      facts :=
        (key "optimized_nodes", optimized_nodes)
        :: (key "training_nodes", training_nodes) :: !facts;
      times :=
        (key "optimize_creates", float_of_int oc)
        :: (key "optimize_ms", ms ot)
        :: (key "differentiate_creates", float_of_int dc)
        :: (key "differentiate_ms", ms dt) :: !times;
      row "%-12s differentiate %.1f ms/%d, optimize %.1f ms/%d: %d -> %d nodes@."
        label (ms dt) dc (ms ot) oc training_nodes optimized_nodes;
      List.iter
        (fun planner ->
          let inst = Planner.instantiate planner.Planner.name in
          let key k = Printf.sprintf "%s/%s/%s" label (Planner.label inst) k in
          let r, rt, rc =
            stage "rewrite" (fun () -> Pipeline.rewrite ~device ~planner:inst o)
          in
          let p, pt, pc = stage "plan" (fun () -> Pipeline.plan r) in
          let f, ft, fc =
            stage "fuse" (fun () ->
                Pipeline.fuse ~enabled:true ~runtime:Parallel.sequential p)
          in
          let x, xt, xc =
            stage "compile" (fun () ->
                Pipeline.compile ~runtime:Parallel.sequential
                  ~sanitize:Echo_analysis.Sanitize.Off f)
          in
          let v, vt, vc =
            stage "verify" (fun () -> Pipeline.verify (Pipeline.Executable x))
          in
          let rv, rvt, rvc = stage "race" (fun () -> Pipeline.race_verify x) in
          let exe = Pipeline.executor x in
          let stage_facts =
            [
              ("rewritten_nodes", Graph.node_count r.Pipeline.graph);
              ("clone_nodes", r.Pipeline.report.Pass.clone_nodes);
              ("fused_arena_bytes", f.Pipeline.fused_memplan.Memplan.arena_bytes);
              ("fused_groups", Executor.fused_group_count exe);
              ( "errors",
                Echo_diag.Report.error_count v
                + Echo_diag.Report.error_count rv );
            ]
          in
          let timed =
            [
              ("rewrite", rt, rc); ("plan", pt, pc); ("fuse", ft, fc);
              ("compile", xt, xc); ("verify", vt, vc); ("race", rvt, rvc);
            ]
          in
          facts := List.rev_map (fun (k, v) -> (key k, v)) stage_facts @ !facts;
          times :=
            List.concat_map
              (fun (st, t, c) ->
                [ (key (st ^ "_creates"), float_of_int c); (key (st ^ "_ms"), ms t) ])
              (List.rev timed)
            @ !times;
          row "%-12s %-18s %s %7d %6d %9s %6d %6d@." label (Planner.label inst)
            (String.concat " "
               (List.map
                  (fun (_, t, c) -> Printf.sprintf "%8.1f/%-2d" (ms t) c)
                  timed))
            (Graph.node_count r.Pipeline.graph)
            r.Pipeline.report.Pass.clone_nodes
            (Footprint.human f.Pipeline.fused_memplan.Memplan.arena_bytes)
            (Executor.fused_group_count exe)
            (List.assoc "errors" stage_facts))
        (Planner.all ()))
    (zoo ~scale:Quick ());
  let all_stages = "differentiate" :: "optimize" :: stages in
  row "%-12s %s@." "zoo total"
    (String.concat ", "
       (List.map
          (fun st ->
            let t, c = Hashtbl.find totals st in
            Printf.sprintf "%s %.0f ms/%d" st (ms t) c)
          all_stages));
  List.iter
    (fun st ->
      let t, c = Hashtbl.find totals st in
      times :=
        (Printf.sprintf "total/%s_creates" st, float_of_int c)
        :: (Printf.sprintf "total/%s_ms" st, ms t) :: !times)
    all_stages;
  let facts = List.rev_map (fun (k, v) -> (k, string_of_int v)) !facts in
  if not !check_mode then
    record_json ~path:e24_record ~tags:facts "E24" (List.rev !times)
  else begin
    let violation fmt =
      Format.kasprintf (fun m -> e24_violations := m :: !e24_violations) fmt
    in
    if not (Sys.file_exists e24_record) then
      violation "no %s to check the facts against" e24_record
    else begin
      let recorded = read_json_tags e24_record in
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt recorded k with
          | None -> violation "%s = %s is not in the record" k v
          | Some r when r <> v -> violation "%s = %s, recorded %s" k v r
          | Some _ -> ())
        facts;
      Hashtbl.iter
        (fun k r ->
          if not (List.mem_assoc k facts) then
            violation "recorded %s = %s was not produced" k r)
        recorded
    end
  end

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17);
    ("E18", e18); ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22);
    ("E24", e24);
  ]

let () =
  let only = ref None in
  let args =
    [
      ( "--only",
        Arg.String (fun s -> only := Some s),
        "Run selected experiments (e.g. E3 or E15,E16)" );
      ("--quick", Arg.Unit (fun () -> scale := Quick), "Shrunken configurations");
      ( "--check",
        Arg.Unit (fun () -> check_mode := true),
        "Smoke gate: run the E18 grid and the E22 race-verify matrix \
         (unless --only narrows it) and exit 1 if fused wall-clock \
         regresses, parallelism is non-monotone, any (zoo x planner x \
         fusion) config has a static race finding, or a sanitized run \
         diverges; with --only E15, if an executor's bits differ from the \
         interpreter's; with --only E16, if the matmul kernel's bits differ \
         from the reference loops'; with --only E19, if an executed slab \
         layout fails the range check, a footprint differs from the bytes \
         allocated or the annealed solve of the stash-all graph exceeds the \
         greedy slab; with --only E24, if a compile stage's exact facts \
         differ from BENCH_E24.json (which a check run reads and does not \
         rewrite)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "echo experiment harness";
  if !check_mode && !only = None then only := Some "E18,E22";
  let selected =
    match !only with
    | None -> experiments
    | Some ids ->
      let wanted =
        List.filter
          (fun s -> s <> "")
          (List.map String.trim
             (String.split_on_char ',' (String.lowercase_ascii ids)))
      in
      (* Reject any unknown id, not just an all-unknown list: a typo in
         --only E3,E77 must error, not silently run a subset. *)
      let known (name, _) = List.mem (String.lowercase_ascii name) wanted in
      let unknown =
        List.filter
          (fun w ->
            not
              (List.exists
                 (fun (name, _) -> String.lowercase_ascii name = w)
                 experiments))
          wanted
      in
      if unknown <> [] || wanted = [] then begin
        Format.printf "unknown experiment%s %s; available: %s@."
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " (List.map fst experiments));
        exit 1
      end;
      List.filter known experiments
  in
  let t0 = Sys.time () in
  List.iter (fun (_, f) -> f ()) selected;
  json_flush ();
  Format.printf "@.done in %.1f s (cpu)@." (Sys.time () -. t0);
  if !check_mode then begin
    (* Only render verdicts for gates that actually ran: --only E22 --check
       must not print a vacuous "E18 check: OK". *)
    let ran name = List.exists (fun (n, _) -> n = name) selected in
    let render name violations =
      if not (ran name) then true
      else if !violations = [] then begin
        Format.printf "%s check: OK@." name;
        true
      end
      else begin
        Format.printf "%s check FAILED:@." name;
        List.iter (fun m -> Format.printf "  %s@." m) (List.rev !violations);
        false
      end
    in
    let ok15 = render "E15" e15_violations in
    let ok16 = render "E16" e16_violations in
    let ok18 = render "E18" e18_violations in
    let ok19 = render "E19" e19_violations in
    let ok22 = render "E22" e22_violations in
    let ok24 = render "E24" e24_violations in
    if not (ok15 && ok16 && ok18 && ok19 && ok22 && ok24) then exit 1
  end
