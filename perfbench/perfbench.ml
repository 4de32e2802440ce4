(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--ops N] [--reps N] [--wrong-reference]

   Runs one workload for S seconds of timed ops and prints, last, one JSON
   line: [correct], [attempted], [failed] and the metrics -- the
   end-to-end metrics under [--trace 0], the per-layer metrics under
   [--trace 1]. See README.md for what each metric means and which layer
   metric should move which end-to-end metric. *)

module H = Harness

let workloads =
  [
    ("nmt-train", (Nmt_train.run, Nmt_train.domains));
    ("compile-zoo", (Compile_zoo.run, 1));
    ("serve-mixed", (Serve_mixed.run, 1));
  ]

(* The benchmark pins its own configuration and passes it explicitly; one
   of these set in the environment would change what is measured. *)
let pinned =
  [ "ECHO_DOMAINS"; "ECHO_FUSION"; "ECHO_VERIFY"; "ECHO_SANITIZE"; "ECHO_FAULTS"; "ECHO_POLICY" ]

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let end_to_end (r : Report.t) =
  let lat = Array.of_list (List.map (fun s -> 1000.0 *. s) r.Report.ops.H.lat) in
  let p90, _ = H.tail lat in
  let o = r.Report.ops in
  [
    H.m "setup_s" "s" r.Report.setup_s;
    H.m "latency_ms_p50" "ms" (H.median lat);
    H.m "latency_ms_p90" "ms" p90;
    H.m "ops_per_s" "1/s" (float_of_int o.H.attempted /. o.H.busy_s);
    H.m "alloc_mb_per_op" "MB" (H.mb_of_words (o.H.alloc_w /. float_of_int o.H.attempted));
    H.m "heap_peak_mb" "MB" (H.mb_of_words (float_of_int o.H.heap_peak_w));
    H.m "footprint_bytes" "B" r.Report.footprint_bytes;
    H.m "footprint_reduction_x" "x" r.Report.footprint_reduction_x;
    H.m "sim_overhead_x" "x" r.Report.sim_overhead_x;
  ]

(* Every per-layer metric, on every workload: a layer the workload never
   enters reads 0. *)
let per_layer ~domains ~calib (r : Report.t) =
  let tbl = H.layers () in
  let t = Option.get r.Report.traced in
  let per_op n = float_of_int n /. float_of_int (max 1 t.H.attempted) in
  let untraced = H.median (Array.of_list r.Report.ops.H.lat) in
  let traced = H.median (Array.of_list t.H.lat) in
  let run = H.layer tbl "executor.run" in
  let own name unit_ =
    match List.find_opt (fun (x : H.metric) -> x.H.name = name) r.Report.layer with
    | Some x -> x
    | None -> H.m name unit_ 0.0
  in
  let ms name = H.m (name ^ "_ms") "ms" (H.self_ms tbl name) in
  [
    ms "models.build";
    ms "pipeline.differentiate";
    ms "pipeline.optimize";
    ms "pipeline.rewrite";
    ms "pipeline.plan";
    ms "pipeline.fuse";
    ms "pipeline.compile";
    ms "analysis.verify";
    ms "analysis.race_verify";
    own "analysis.error_findings" "count";
    own "ir.training_nodes" "count";
    own "ir.rewritten_nodes" "count";
    own "core.clone_nodes" "count";
    own "executor.active_instrs" "count";
    own "executor.fused_groups" "count";
    ms "executor.feed";
    ms "executor.run";
    H.m "executor.run_alloc_mb" "MB" (H.alloc_mb tbl "executor.run");
    H.m "tensor.parallel_util" "ratio"
      (if run.H.calls = 0 then 0.0 else run.H.cpu_s /. (run.H.total_s *. float_of_int domains));
    ms "train.clip";
    ms "train.optimizer";
    H.m "train.optimizer_alloc_mb" "MB" (H.alloc_mb tbl "train.optimizer");
    ms "runtime.checkpoint";
    own "runtime.checkpoint_bytes" "B";
    own "serve.eval_drain_ms" "ms";
    own "serve.compile_hit_ms" "ms";
    own "serve.compile_miss_ms" "ms";
    own "serve.train_ms" "ms";
    own "serve.lint_ms" "ms";
    own "serve.cache_hit_ratio" "ratio";
    own "serve.cache_evictions" "count";
    own "serve.batch_size_mean" "count";
    H.m "gc.minor_collections_per_op" "count" (per_op t.H.minor_gc);
    H.m "gc.major_collections_per_op" "count" (per_op t.H.major_gc);
    H.m "gpusim.sim_step_ms" "ms" r.Report.sim_step_ms;
    H.m "host.calib_ms" "ms" calib;
    H.m "host.latency_iqr_ratio" "ratio" (H.iqr_ratio (Array.of_list r.Report.ops.H.lat));
    H.m "trace.overhead_pct" "%" (100.0 *. (traced -. untraced) /. untraced);
    H.m "trace.spans_per_op" "count" (per_op !H.n_spans);
  ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let ops = ref max_int and reps = ref 3 and wrong = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME nmt-train | compile-zoo | serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer metrics (1)");
      ("--ops", Arg.Set_int ops, "N at most N ops per timed phase");
      ("--reps", Arg.Set_int reps, "N set-up repetitions (default 3)");
      ("--wrong-reference", Arg.Set wrong, " perturb the oracles' references (self-test)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> fail "%s" (List.hd (String.split_on_char '\n' msg)));
  let run, domains =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      fail "unknown workload %S (%s)" !workload (String.concat " | " (List.map fst workloads))
  in
  if !seed < 0 then fail "--seed N is required (N >= 0)";
  if not (!seconds > 0.0) then fail "--seconds S is required (S > 0)";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !ops < 1 || !reps < 1 then fail "--ops and --reps must be at least 1";
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some x -> fail "refusing to run: %s=%S is set; the benchmark pins its own configuration" v x
      | None -> ())
    pinned;
  (* Scratch files: checkpoints and traces. *)
  let out = ".perfbench" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let calib0 = H.calib_ms () in
  let ctx =
    {
      H.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      wrong_reference = !wrong;
      out_dir = out;
      reps = !reps;
      max_ops = !ops;
    }
  in
  let r = run ctx in
  (* The calibration spin is not set-up work. *)
  let r = { r with Report.setup_s = r.Report.setup_s -. (calib0 /. 1000.0) } in
  let calib1 = H.calib_ms () in
  let o = r.Report.ops in
  let attempted, failed =
    match r.Report.traced with
    | None -> (o.H.attempted, o.H.failed)
    | Some t -> (o.H.attempted + t.H.attempted, o.H.failed + t.H.failed)
  in
  let lat = Array.of_list r.Report.ops.H.lat in
  let _, pct = H.tail lat in
  let kv l = String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (H.json_string k) (H.json_string v)) l) in
  Printf.printf
    "info: {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \"nproc\": %d, \"ocaml\": %s, \"config\": {%s}, \"samples\": %d, \"p90_percentile\": %s, \"error_rate\": %s, \"host_calib_ms\": [%s, %s], \"latency_iqr_ratio\": %s}\n"
    (H.json_string !workload) !seed (H.json_num !seconds) !trace
    (Domain.recommended_domain_count ()) (H.json_string Sys.ocaml_version) (kv r.Report.config)
    (Array.length lat) (H.json_num pct)
    (H.json_num (float_of_int failed /. float_of_int (max 1 attempted)))
    (H.json_num calib0) (H.json_num calib1) (H.json_num (H.iqr_ratio lat));
  if attempted < 1 then fail "no op completed";
  let metrics =
    if ctx.H.trace then begin
      H.write_trace (Filename.concat out (Printf.sprintf "trace-%s-%d.json" !workload !seed));
      per_layer ~domains ~calib:(H.median [| calib0; calib1 |]) r
    end
    else end_to_end r
  in
  H.print_result ~correct:(failed = 0) ~attempted ~failed metrics
