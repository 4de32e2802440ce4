(* Race-verify: the static partition-disjointness analysis and the
   shadow-memory sanitizer.

   Three layers of evidence, mirroring the Echo-verify philosophy:

   - Clean-pass: the model zoo x planner x fusion x domain-count matrix
     compiles to executables the race checker accepts — the analysis must
     be quiet on everything the pipeline actually produces.
   - Negative: each {!Mutate} race corruption (shifted partition
     boundary, shrunk lifetime, aliased offsets, widened fused interior)
     makes exactly the static checker built for it fire, and the
     dynamic sanitizer catches the corruptions that reach a real
     executor.
   - Differential: training under the sanitizer (Cells and Full) is
     bit-identical to plain training at 1/2/4 domains, fused and
     unfused — the checks observe, never perturb. *)

open Echo_ir
open Echo_models
open Echo_tensor
module Race = Echo_analysis.Race
module Sanitize = Echo_analysis.Sanitize
module Mutate = Echo_analysis.Mutate
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Liveness = Echo_exec.Liveness
module Memplan = Echo_exec.Memplan
module Report = Echo_diag.Report
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Planner = Echo_core.Planner
module Corpus = Echo_workloads.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_error ~check report =
  List.exists
    (fun d -> d.Echo_diag.severity = Echo_diag.Error)
    (Report.with_check check report)

let require name = function
  | Some v -> v
  | None -> Alcotest.failf "%s: the mutation found no corruption site" name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A pool whose fan-out is forced on, so the partitioned code paths (and
   the partition checkers) are exercised even on a single-core CI
   machine. *)
let fanout n =
  Parallel.create ~domains:n ~oversubscribe:true ~min_fanout_work:0 ()

let with_fanout n f =
  let pool = fanout n in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let tiny_cfg =
  {
    Language_model.ptb_default with
    vocab = 40;
    embed = 12;
    hidden = 12;
    layers = 2;
    seq_len = 6;
    batch = 3;
    dropout = 0.2;
  }

let lm_graph () =
  let lm = Language_model.build tiny_cfg in
  (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph

(* ---------------- mode parsing ---------------- *)

let test_mode_parsing () =
  List.iter
    (fun (s, m) ->
      check_bool s true (Sanitize.mode_of_string ~source:"test" s = m))
    [
      ("0", Sanitize.Off); ("off", Sanitize.Off); ("false", Sanitize.Off);
      ("no", Sanitize.Off); ("1", Sanitize.Cells); ("on", Sanitize.Cells);
      ("true", Sanitize.Cells); ("yes", Sanitize.Cells);
      ("cells", Sanitize.Cells); ("2", Sanitize.Full); ("full", Sanitize.Full);
    ];
  (match Sanitize.mode_of_string ~source:"--sanitize" "bogus" with
  | _ -> Alcotest.fail "bogus mode must not parse"
  | exception Invalid_argument msg ->
    check_bool "error names the source" true (contains ~sub:"--sanitize" msg);
    check_bool "error names the value" true (contains ~sub:"bogus" msg));
  check_bool "off is off" false (Sanitize.is_on Sanitize.Off);
  check_bool "full is on" true (Sanitize.is_on Sanitize.Full)

(* The sanitizer mode is baked into the executor's run loop, so it must
   be part of the plan-cache content address. *)
let test_cache_key_covers_sanitize () =
  let g = lm_graph () in
  check_bool "sanitized and plain keys differ" false
    (Pipeline.cache_key ~sanitize:Sanitize.Off g
    = Pipeline.cache_key ~sanitize:Sanitize.Cells g)

(* ---------------- clean-pass matrix ---------------- *)

(* Every executable the pipeline produces — across planners, fusion
   settings and forced fan-out domain counts — must pass the full static
   race check with zero errors. *)
let test_clean_matrix () =
  let graphs = [ ("lstm", lm_graph ()) ] in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun planner ->
          let inst = Planner.instantiate planner in
          List.iter
            (fun fuse ->
              List.iter
                (fun domains ->
                  with_fanout domains (fun runtime ->
                      let exe =
                        Pipeline.compile_graph ~planner:inst ~runtime ~fuse g
                      in
                      let report = Pipeline.race_verify exe in
                      if Report.error_count report > 0 then
                        Alcotest.failf
                          "%s/%s/%s/%dd: race_verify found errors:\n%s" name
                          planner
                          (if fuse then "fused" else "unfused")
                          domains
                          (String.concat "\n"
                             (List.map Echo_diag.to_string
                                (Report.errors report)))))
                [ 1; 2; 4 ])
            [ true; false ])
        [ "stash-all"; "checkpoint-sqrt"; "echo" ])
    graphs

(* ---------------- static negative tests ---------------- *)

let test_partition_checker_fires () =
  let g = lm_graph () in
  with_fanout 2 (fun runtime ->
      check_bool "clean formula passes" false
        (Report.has_errors (Race.check_kernels ~runtime g));
      List.iter
        (fun (label, kind) ->
          let report =
            Race.check_kernels ~chunk_bounds:(Mutate.shift_partition kind)
              ~runtime g
          in
          check_bool (label ^ " flagged") true
            (has_error ~check:"race-partition" report))
        [ ("overlap", `Overlap); ("gap", `Gap) ])

let test_lifetime_checker_fires () =
  let g = lm_graph () in
  let live = Liveness.intervals (Liveness.analyse g) in
  check_bool "clean intervals pass" false
    (Report.has_errors (Race.check_lifetimes ~intervals:live g));
  let corrupted = require "shrink_lifetime" (Mutate.shrink_lifetime live) in
  check_bool "shrunk lifetime flagged" true
    (has_error ~check:"race-liveness"
       (Race.check_lifetimes ~intervals:corrupted g))

let test_alias_offsets_checker_fires () =
  let g = lm_graph () in
  let exe = Pipeline.compile_graph ~fuse:false g in
  let e = Pipeline.executor exe in
  check_bool "compiled layout passes" false
    (Report.has_errors (Race.check_addresses g (Executor.offsets e)));
  let fused = Pipeline.executor (Pipeline.compile_graph ~fuse:true g) in
  let plan = Executor.plan fused in
  check_bool "fused layout passes" false
    (Report.has_errors
       (Race.check_addresses ?fusion:plan.Memplan.fusion g
          (Executor.offsets fused)));
  let corrupted =
    require "overlap_partially" (Mutate.overlap_partially g (Executor.plan e))
  in
  check_bool "partially overlapping ranges flagged" true
    (has_error ~check:"race-address"
       (Race.check_addresses g (Echo_exec.Assign.of_plan g corrupted)))

let test_fused_interior_checker_fires () =
  let g = lm_graph () in
  let plan = Fuse.analyse g in
  check_bool "pipeline's own plan passes" false
    (Report.has_errors (Race.check_fused plan));
  let widened = require "widen_fused_interior" (Mutate.widen_fused_interior plan) in
  check_bool "widened interior flagged" true
    (has_error ~check:"race-fused" (Race.check_fused widened))

(* ---------------- dynamic negative tests ---------------- *)

(* The toy convex problem from the training-loop suite: small enough
   that executor-level feeds are a one-liner. *)
let toy_training () =
  let w = Node.variable ~name:"w" [| 4 |] in
  let target = Node.placeholder ~name:"t" [| 4 |] in
  let diff = Node.sub w target in
  let loss = Node.reduce_sum ~axis:0 ~keepdims:false (Node.sq diff) in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ w ] in
  let feeds =
    [
      (w, Tensor.of_list1 [ 1.0; -2.0; 0.5; 3.0 ]);
      (target, Tensor.of_list1 [ 3.0; -2.0; 1.0; 0.0 ]);
    ]
  in
  (training.Echo_autodiff.Grad.graph, feeds)

(* A small LM whose plan reuses slab ranges. *)
let diff_cfg_small =
  {
    Language_model.ptb_default with
    vocab = 20;
    embed = 8;
    hidden = 8;
    layers = 1;
    seq_len = 4;
    batch = 2;
    dropout = 0.0;
  }

(* [g]'s memory plan, made over its liveness with one lifetime shrunk. *)
let shrunk_plan ?fusion g =
  let live = Liveness.analyse ?fusion g in
  let corrupted =
    require "shrink_lifetime" (Mutate.shrink_lifetime (Liveness.intervals live))
  in
  let steps = Liveness.step_count live in
  Memplan.plan ?fusion ~liveness:(Liveness.of_intervals ~steps corrupted) g

let expect_stale_read exe ~feeds =
  match Executor.eval exe ~feeds with
  | _ -> Alcotest.fail "sanitizer accepted a read past the plan's expiry"
  | exception Sanitize.Sanitize_failed report ->
    check_bool "expired read flagged" true
      (has_error ~check:"sanitize-expired" report
      || has_error ~check:"sanitize-stale" report)

(* A corrupted liveness plan compiled into a real executor: the arena
   recycles the victim's buffer under its still-pending read, and the
   Cells-mode sanitizer must refuse the step. *)
let test_sanitizer_catches_shrunk_lifetime () =
  let g, feeds = toy_training () in
  (* the clean plan runs sanitized without findings *)
  let clean = Executor.compile ~sanitize:Sanitize.Full g in
  ignore (Executor.eval clean ~feeds);
  let exe = Executor.compile ~plan:(shrunk_plan g) ~sanitize:Sanitize.Cells g in
  expect_stale_read exe ~feeds

(* One range shifted to overlap part of a range live across its
   definition, so the two share some cells but neither offset nor size.
   Verify's
   range checker and Race's address checker flag it statically, and the
   Cells sanitizer sees the victim's cells overwritten in a real executor
   compiled from the corrupted plan. *)
let test_partial_overlap_caught_three_ways () =
  let lm = Language_model.build diff_cfg_small in
  let g = (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph in
  let plan = Memplan.plan g in
  let corrupted =
    require "overlap_partially" (Mutate.overlap_partially g plan)
  in
  let offsets = Echo_exec.Assign.of_plan g corrupted in
  check_bool "clean plan passes the range check" false
    (Report.has_errors
       (Echo_analysis.Verify.check_ranges g (Echo_exec.Assign.of_plan g plan)));
  check_bool "range check flags the overlap" true
    (has_error ~check:"alias" (Echo_analysis.Verify.check_ranges g offsets));
  check_bool "address check flags the overlap" true
    (has_error ~check:"race-address" (Race.check_addresses g offsets));
  let feeds =
    [ (lm.Language_model.token_input, Tensor.zeros (Node.shape lm.Language_model.token_input));
      (lm.Language_model.label_input, Tensor.ones (Node.shape lm.Language_model.label_input)) ]
    @ Params.bindings lm.Language_model.model.Model.params
  in
  ignore
    (Executor.eval (Executor.compile ~plan ~sanitize:Sanitize.Cells g) ~feeds);
  let exe = Executor.compile ~plan:corrupted ~sanitize:Sanitize.Cells g in
  match Executor.eval exe ~feeds with
  | _ -> Alcotest.fail "sanitizer accepted a partially overwritten value"
  | exception Sanitize.Sanitize_failed report ->
    check_bool "stale cells flagged" true
      (has_error ~check:"sanitize-stale" report)

(* The fused stage's plan is the one the executable runs and race-verify
   checks: a lifetime shrunk in [fused_memplan] must surface both
   statically (race-liveness) and dynamically (the sanitizer). *)
let test_pipeline_runs_and_checks_its_plan () =
  let g, feeds = toy_training () in
  let f =
    Pipeline.of_training_graph g
    |> Pipeline.optimize ~enabled:false
    |> Pipeline.rewrite |> Pipeline.plan
    |> Pipeline.fuse ~enabled:true
  in
  let fused_memplan = shrunk_plan ?fusion:f.Pipeline.fusion f.Pipeline.graph in
  let exe =
    Pipeline.compile ~sanitize:Sanitize.Cells
      { f with Pipeline.fused_memplan }
  in
  check_bool "executor carries the handed plan" true
    (Executor.plan (Pipeline.executor exe) == fused_memplan);
  check_bool "race-verify checks the shrunk lifetime" true
    (has_error ~check:"race-liveness" (Pipeline.race_verify exe));
  expect_stale_read (Pipeline.executor exe) ~feeds

(* The sanitizer state machine itself, driven directly: each check name
   fires on the hand-made corruption built for it. *)
let slot ?(dst = None) ?(reads = [||]) ?(expire = max_int) name =
  {
    Sanitize.si_name = name;
    si_dst = dst;
    si_const = false;
    si_reads = reads;
    si_expire = expire;
  }

let test_sanitizer_unit_checks () =
  (* A 12-cell slab: one 8-cell value at cell 0, one 4-cell value at 8. *)
  let slab () = Array.make 12 0.0 in
  let checks report name =
    check_bool (name ^ " fired") true (has_error ~check:name report)
  in
  (* a partial (out-of-partition) write leaves unstamped cells behind: the
     reader sees uninitialized shadow — the dynamic face of a partition
     gap *)
  let t =
    Sanitize.create Sanitize.Cells
      ~slots:
        [|
          slot ~dst:(Some (0, 8)) "writer";
          slot ~dst:(Some (8, 4)) ~reads:[| (0, 0, 8) |] "reader";
        |]
      ~slab:(slab ())
  in
  Sanitize.begin_run t;
  Sanitize.before_instr t 0;
  Sanitize.after_instr t ~written:[ (0, 4) ] 0;
  Sanitize.before_instr t 1;
  Sanitize.after_instr t 1;
  checks (Sanitize.report t) "sanitize-uninit";
  (* an interloper overwrites the producer's buffer before the read — the
     dynamic face of two values aliased onto one offset *)
  let t =
    Sanitize.create Sanitize.Cells
      ~slots:
        [|
          slot ~dst:(Some (0, 8)) "producer";
          slot ~dst:(Some (0, 8)) "interloper";
          slot ~dst:(Some (8, 4)) ~reads:[| (0, 0, 8) |] "reader";
        |]
      ~slab:(slab ())
  in
  Sanitize.begin_run t;
  Sanitize.before_instr t 0;
  Sanitize.after_instr t 0;
  Sanitize.before_instr t 1;
  Sanitize.after_instr t 1;
  Sanitize.before_instr t 2;
  Sanitize.after_instr t 2;
  checks (Sanitize.report t) "sanitize-stale";
  (* a read wider than the physical buffer *)
  let t =
    Sanitize.create Sanitize.Cells
      ~slots:
        [|
          slot ~dst:(Some (0, 8)) "writer";
          slot ~dst:(Some (8, 4)) ~reads:[| (0, 0, 16) |] "wide-reader";
        |]
      ~slab:(slab ())
  in
  Sanitize.begin_run t;
  Sanitize.before_instr t 0;
  Sanitize.after_instr t 0;
  Sanitize.before_instr t 1;
  checks (Sanitize.report t) "sanitize-oob";
  (* a read past the producer's planned expiry *)
  let t =
    Sanitize.create Sanitize.Cells
      ~slots:
        [|
          slot ~dst:(Some (0, 8)) ~expire:0 "short-lived";
          slot ~dst:(Some (8, 4)) "bystander";
          slot ~dst:(Some (8, 4)) ~reads:[| (0, 0, 8) |] "late-reader";
        |]
      ~slab:(slab ())
  in
  Sanitize.begin_run t;
  Sanitize.before_instr t 0;
  Sanitize.after_instr t 0;
  Sanitize.before_instr t 2;
  checks (Sanitize.report t) "sanitize-expired";
  (* Full mode: a write that escapes its destination shows up as a
     foreign diff at the next instruction — the dynamic face of an
     out-of-partition write, and of an injected bit flip *)
  let cells = slab () in
  let t =
    Sanitize.create Sanitize.Full
      ~slots:[| slot ~dst:(Some (8, 4)) "a"; slot ~dst:(Some (8, 4)) "b" |]
      ~slab:cells
  in
  Sanitize.begin_run t;
  Sanitize.before_instr t 0;
  Sanitize.after_instr t 0;
  cells.(3) <- 42.0;
  Sanitize.before_instr t 1;
  Sanitize.after_instr t 1;
  checks (Sanitize.report t) "sanitize-foreign";
  match Sanitize.check_exn t with
  | () -> Alcotest.fail "check_exn must raise on findings"
  | exception Sanitize.Sanitize_failed _ -> ()

(* ---------------- differential: sanitized == plain ---------------- *)

let diff_cfg =
  {
    Language_model.ptb_default with
    vocab = 20;
    embed = 8;
    hidden = 8;
    layers = 1;
    seq_len = 4;
    batch = 2;
    dropout = 0.2;
  }

let train_losses ~runtime ~fuse ~sanitize =
  let lm = Language_model.build diff_cfg in
  let training = Model.training lm.Language_model.model in
  let steps = 3 in
  let corpus =
    Corpus.generate ~seed:11 ~vocab:diff_cfg.Language_model.vocab
      ~length:
        (((steps + 2) * diff_cfg.Language_model.batch
         * diff_cfg.Language_model.seq_len)
        + 1)
  in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      (Corpus.lm_batches corpus ~batch:diff_cfg.Language_model.batch
         ~seq_len:diff_cfg.Language_model.seq_len ~steps)
  in
  let r =
    Loop.train ~graph:training.Echo_autodiff.Grad.graph
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.5 }))
      ~runtime ~fuse ~sanitize ~batches ()
  in
  List.map Int64.bits_of_float r.Loop.losses

let test_sanitized_training_bit_identical () =
  let reference =
    with_fanout 1 (fun runtime ->
        train_losses ~runtime ~fuse:true ~sanitize:Sanitize.Off)
  in
  check_int "trained" 3 (List.length reference);
  List.iter
    (fun domains ->
      with_fanout domains (fun runtime ->
          List.iter
            (fun fuse ->
              List.iter
                (fun sanitize ->
                  let losses = train_losses ~runtime ~fuse ~sanitize in
                  Alcotest.(check (list int64))
                    (Printf.sprintf "%dd/%s/%s bit-identical" domains
                       (if fuse then "fused" else "unfused")
                       (Sanitize.mode_name sanitize))
                    reference losses)
                [ Sanitize.Off; Sanitize.Cells; Sanitize.Full ])
            [ true; false ]))
    [ 1; 2; 4 ]

(* qcheck transparency: for an arbitrary small LM shape, forced fan-out
   count, fusion setting and sanitize mode, the sanitized executor's
   outputs are bit-identical to the plain executor's on the same
   runtime — the shadow memory observes, never perturbs. *)
let prop_sanitizer_transparent =
  QCheck.Test.make ~name:"sanitized eval bit-identical on arbitrary LM shapes"
    ~count:8
    QCheck.(
      pair
        (quad (int_range 4 12) (int_range 2 5) (int_range 1 2) (int_range 1 3))
        (triple (int_range 0 2) bool (int_range 1 2)))
    (fun ((hidden, seq_len, layers, batch), (dom_idx, fuse, mode_idx)) ->
      let cfg =
        {
          Language_model.ptb_default with
          vocab = 30;
          embed = hidden;
          hidden;
          layers;
          seq_len;
          batch;
          dropout = 0.1;
        }
      in
      let lm = Language_model.build cfg in
      let g =
        (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph
      in
      let ids node salt =
        let k = ref salt in
        ( node,
          Tensor.init (Node.shape node) (fun _ ->
              incr k;
              float_of_int (!k mod cfg.Language_model.vocab)) )
      in
      let feeds =
        [ ids lm.Language_model.token_input 1;
          ids lm.Language_model.label_input 2 ]
        @ Params.bindings lm.Language_model.model.Model.params
      in
      let domains = List.nth [ 1; 2; 4 ] dom_idx in
      let mode = List.nth [ Sanitize.Cells; Sanitize.Full ] (mode_idx - 1) in
      let fusion = if fuse then Some (Fuse.analyse g) else None in
      with_fanout domains (fun runtime ->
          let compile sanitize =
            Executor.compile ~runtime ~plan:(Memplan.plan ?fusion g) ~sanitize g
          in
          let reference = Executor.eval (compile Sanitize.Off) ~feeds in
          let sanitized = Executor.eval (compile mode) ~feeds in
          List.for_all2 Tensor.equal reference sanitized))

(* ---------------- the serve lint verb ---------------- *)

let test_serve_lint_verb () =
  let engine = Echo_serve.Engine.create () in
  let r = Echo_serve.Engine.exec engine "lint hidden=8 vocab=20 seq_len=4" in
  check_bool "ok" true (contains ~sub:"ok findings=" r);
  check_bool "no errors on a sound artifact" true (contains ~sub:"errors=0" r);
  check_bool "cold compile" true (contains ~sub:"cached=false" r);
  let again = Echo_serve.Engine.exec engine "lint hidden=8 vocab=20 seq_len=4" in
  check_bool "warm re-check is served from the cache" true
    (contains ~sub:"cached=true" again);
  let bad = Echo_serve.Engine.exec engine "lint hidden=8 bogus=1" in
  check_bool "unknown key rejected" true (contains ~sub:"err" bad);
  check_bool "offender named" true (contains ~sub:"bogus" bad)

let suite =
  [
    ( "race",
      [
        Alcotest.test_case "sanitize mode parsing is strict" `Quick
          test_mode_parsing;
        Alcotest.test_case "cache key covers the sanitize mode" `Quick
          test_cache_key_covers_sanitize;
        Alcotest.test_case "clean matrix: planners x fusion x domains" `Quick
          test_clean_matrix;
        Alcotest.test_case "partition checker fires on shifted bounds" `Quick
          test_partition_checker_fires;
        Alcotest.test_case "lifetime checker fires on shrunk interval" `Quick
          test_lifetime_checker_fires;
        Alcotest.test_case "address checker fires on aliased offsets" `Quick
          test_alias_offsets_checker_fires;
        Alcotest.test_case "fused checker fires on widened interior" `Quick
          test_fused_interior_checker_fires;
        Alcotest.test_case "sanitizer catches a shrunk lifetime at runtime"
          `Quick test_sanitizer_catches_shrunk_lifetime;
        Alcotest.test_case
          "partial range overlap caught by verify, race and sanitizer" `Quick
          test_partial_overlap_caught_three_ways;
        Alcotest.test_case "pipeline runs and race-checks the fused plan"
          `Quick test_pipeline_runs_and_checks_its_plan;
        Alcotest.test_case "sanitizer unit checks all fire" `Quick
          test_sanitizer_unit_checks;
        Alcotest.test_case "sanitized training is bit-identical" `Quick
          test_sanitized_training_bit_identical;
        QCheck_alcotest.to_alcotest prop_sanitizer_transparent;
        Alcotest.test_case "serve lint verb" `Quick test_serve_lint_verb;
      ] );
  ]
