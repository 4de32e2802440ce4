(* Echo-verify: the static plan-sanitizer layer.

   Two halves. Negative tests drive the mutation harness: each deliberate
   corruption of an otherwise sound artifact (overlapped slots, a
   retargeted in-place donor, a reseeded clone, a region-crossing fusion
   group, a broken schedule) must make exactly the checker built for it
   fire. Clean-pass tests sweep the model zoo x policy x fusion matrix and
   assert the verifier finds nothing on artifacts the pipeline actually
   produces — the checkers must be sound AND quiet. *)

open Echo_ir
open Echo_models
open Echo_core
module Verify = Echo_analysis.Verify
module Mutate = Echo_analysis.Mutate
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Report = Echo_diag.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dev = Echo_gpusim.Device.titan_xp

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

let tiny_lm_cfg =
  {
    Language_model.ptb_default with
    vocab = 80;
    embed = 16;
    hidden = 16;
    layers = 2;
    seq_len = 8;
    batch = 4;
    dropout = 0.2;
  }

let lm_training_graph () =
  let lm = Language_model.build tiny_lm_cfg in
  (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph

let rewritten name =
  let g, _ =
    Pass.run_instance ~device:dev (Planner.instantiate name)
      (lm_training_graph ())
  in
  g

(* ---------------- diagnostics plumbing ---------------- *)

let test_report_collects_and_counts () =
  let r = Report.create () in
  Report.errorf r ~check:"a" ~stage:"s" ~nodes:[ 1; 2 ] "first %d" 1;
  Report.warnf r ~check:"b" ~stage:"s" ~nodes:[] "second";
  Report.infof r ~check:"a" ~stage:"s" ~nodes:[ 3 ] "third";
  check_int "errors" 1 (Report.error_count r);
  check_int "warnings" 1 (Report.warning_count r);
  check_int "infos" 1 (Report.info_count r);
  check_bool "has_errors" true (Report.has_errors r);
  check_bool "not clean" false (Report.is_clean r);
  check_int "check filter" 2 (List.length (Report.with_check "a" r));
  (match Report.diags r with
  | [ d1; _; _ ] ->
    check_bool "in order" true (d1.Echo_diag.message = "first 1");
    check_bool "pp mentions check and stage" true
      (contains ~sub:"a@s" (Echo_diag.to_string d1))
  | _ -> Alcotest.fail "expected three diagnostics in order")

let test_check_exn_raises_on_errors () =
  let clean = Report.create () in
  Verify.check_exn clean;
  let dirty = Report.create () in
  Report.errorf dirty ~check:"x" ~stage:"s" ~nodes:[] "boom";
  check_bool "raises" true
    (match Verify.check_exn dirty with
    | () -> false
    | exception Verify.Verify_failed r -> Report.has_errors r)

(* ---------------- satellite ports: Graph.check / Assign.check -------- *)

let test_graph_check_clean_and_validate () =
  let g = lm_training_graph () in
  check_bool "graph check clean" true (Report.is_clean (Graph.check g));
  Graph.validate g

(* The offsets of the unfused memory plan's walk. *)
let walk_offsets g = Echo_exec.Assign.of_plan g (Echo_exec.Memplan.plan g)

let test_assign_check_collects_all_corruptions () =
  let g = rewritten "stash-all" in
  let a = walk_offsets g in
  check_bool "sound plan is clean" true
    (Report.is_clean (Echo_exec.Assign.check a));
  Echo_exec.Assign.validate a;
  (* Two independent corruptions -> two diagnostics in one report: the
     collect-all port, where the old validate stopped at the first. *)
  let corrupted =
    require "overlap_slots"
      (Mutate.overlap_slots (require "escape_slot" (Mutate.escape_slot a)))
  in
  let report = Echo_exec.Assign.check corrupted in
  check_bool "collects at least two" true (Report.error_count report >= 2);
  check_bool "validate raises" true
    (match Echo_exec.Assign.validate corrupted with
    | () -> false
    | exception Failure _ -> true)

(* ---------------- negative tests: one per checker ---------------- *)

let test_schedule_checker_fires_on_broken_order () =
  let g = rewritten "stash-all" in
  check_int "sound schedule" 0 (Report.error_count (Verify.check_schedule g));
  let schedule = require "swap_schedule" (Mutate.swap_schedule g) in
  check_bool "fires" true
    (has_error ~check:"schedule" (Verify.check_schedule ~schedule g))

let test_offset_checker_fires_on_overlap_and_escape () =
  let g = rewritten "stash-all" in
  let a = walk_offsets g in
  check_int "sound offsets" 0 (Report.error_count (Verify.check_ranges g a));
  let overlapped = require "overlap" (Mutate.overlap_slots a) in
  check_bool "overlap fires" true
    (has_error ~check:"alias" (Verify.check_ranges g overlapped));
  check_bool "escape fires" true
    (has_error ~check:"arena"
       (Verify.check_ranges g (require "escape" (Mutate.escape_slot a))))

(* The layout a fused executable runs, checked under its fusion plan. *)
let test_alias_checker_fires_on_shared_live_buffer () =
  let g = rewritten "stash-all" in
  let exe = Pipeline.compile_graph ~fuse:true g in
  let e = Pipeline.executor exe in
  let fusion = (Executor.plan e).Echo_exec.Memplan.fusion in
  let offsets = Executor.offsets e in
  check_int "sound layout" 0
    (Report.error_count (Verify.check_ranges ?fusion g offsets));
  let corrupted = require "overlap_slots" (Mutate.overlap_slots offsets) in
  check_bool "fires" true
    (has_error ~check:"alias" (Verify.check_ranges ?fusion g corrupted))

let test_inplace_checker_fires_on_retargeted_donor () =
  let g = rewritten "stash-all" in
  let offsets =
    Executor.offsets (Pipeline.executor (Pipeline.compile_graph ~fuse:false g))
  in
  let corrupted =
    require "retarget_inplace" (Mutate.retarget_inplace g offsets)
  in
  check_bool "fires" true
    (has_error ~check:"inplace" (Verify.check_ranges g corrupted))

let test_recompute_checker_fires_on_reseeded_clone () =
  let g = rewritten "recompute-all" in
  check_int "sound clones" 0 (Report.error_count (Verify.check_recompute g));
  let reseeded = require "reseed_clone" (Mutate.reseed_clone g) in
  check_bool "fires" true
    (has_error ~check:"recompute" (Verify.check_recompute reseeded))

let test_recompute_checker_fires_on_late_clone () =
  let g = rewritten "recompute-all" in
  let late = require "bad_clone_hint" (Mutate.bad_clone_hint g) in
  check_bool "fires" true
    (has_error ~check:"recompute" (Verify.check_recompute late))

let test_fusion_checker_fires_on_region_crossing () =
  let g = rewritten "stash-all" in
  check_int "sound plan" 0
    (Report.error_count (Verify.check_fusion g (Fuse.analyse g)));
  let crossing = require "cross_region_group" (Mutate.cross_region_group g) in
  let report = Verify.check_fusion g crossing in
  check_bool "fires" true (has_error ~check:"fusion" report);
  check_bool "names the boundary" true
    (List.exists
       (fun d -> contains ~sub:"forward/backward boundary" d.Echo_diag.message)
       (Report.with_check "fusion" report))

let test_fusion_checker_fires_on_handmade_corruptions () =
  let x = Node.placeholder ~name:"x" [| 4; 4 |] in
  let a = Node.sigmoid x in
  let b = Node.tanh_ a in
  let chain = Graph.create [ b ] in
  let plan = Fuse.analyse chain in
  check_int "one group" 1 (Fuse.group_count plan);
  check_int "sound" 0 (Report.error_count (Verify.check_fusion chain plan));
  (* Externals over budget. *)
  check_bool "over budget fires" true
    (has_error ~check:"fusion"
       (Verify.check_fusion ~max_externals:0 chain plan));
  (* An interior that is also a graph output never materialises. *)
  let leaky = Graph.create [ a; b ] in
  let corrupt =
    Fuse.of_groups [ { Fuse.members = [ a; b ]; root = b; externals = [ x ] } ]
  in
  check_bool "interior output fires" true
    (has_error ~check:"fusion" (Verify.check_fusion leaky corrupt));
  (* A root that is not the chain's last member. *)
  let wrong_root =
    Fuse.of_groups [ { Fuse.members = [ a; b ]; root = a; externals = [ x ] } ]
  in
  check_bool "wrong root fires" true
    (has_error ~check:"fusion" (Verify.check_fusion chain wrong_root))

let test_determinism_notes_shared_seeds () =
  let m1 = Node.dropout_mask ~name:"m1" ~p:0.5 ~seed:7 [| 2; 2 |] in
  let m2 = Node.dropout_mask ~name:"m2" ~p:0.5 ~seed:7 [| 2; 2 |] in
  let g = Graph.create [ Node.mul m1 m2 ] in
  let report = Verify.check_determinism g in
  check_int "no errors" 0 (Report.error_count report);
  check_bool "info notes the collision" true (Report.info_count report >= 1)

(* ---------------- clean passes ---------------- *)

let zoo_models () =
  [
    (Language_model.build tiny_lm_cfg).Language_model.model;
    (Nmt.build
       {
         Nmt.gnmt_like with
         src_vocab = 20;
         tgt_vocab = 20;
         embed = 6;
         hidden = 6;
         enc_layers = 1;
         dec_layers = 1;
         src_len = 3;
         tgt_len = 3;
         batch = 2;
         dropout = 0.1;
       })
      .Nmt.model;
    (Deepspeech.build
       {
         Deepspeech.ds2_like with
         batch = 1;
         time = 12;
         freq = 8;
         conv_channels = 2;
         rnn_hidden = 4;
         rnn_layers = 1;
         classes = 5;
         dropout = 0.0;
       })
      .Deepspeech.model;
    (Transformer.build
       {
         Transformer.base_like with
         vocab = 20;
         seq_len = 4;
         batch = 2;
         d_model = 8;
         heads = 2;
         d_ff = 12;
         layers = 1;
         dropout = 0.1;
       })
      .Transformer.model;
  ]

let matrix_planners =
  [
    Planner.instantiate "stash-all";
    Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo";
    Planner.instantiate "checkpoint-sqrt";
    Planner.instantiate "recompute-all";
  ]

let test_zoo_matrix_lints_clean () =
  (* Every E1 model x every policy x fusion on/off: the full lint (with the
     executed offsets checked) reports no errors and no warnings on real
     compiled artifacts, DS2's convolutions included. Info findings are
     allowed. Each executor runs the very plan its fused stage made, so its
     footprint is that plan's arena; a planner that selects nothing plans
     its graph once. *)
  List.iter
    (fun model ->
      let src = Pipeline.of_model model in
      let opt = Pipeline.optimize (Pipeline.differentiate src) in
      List.iter
        (fun planner ->
          let pl = Pipeline.plan (Pipeline.rewrite ~device:dev ~planner opt) in
          List.iter
            (fun fusion ->
              let exe =
                Pipeline.compile (Pipeline.fuse ~enabled:fusion pl)
              in
              let report = Pipeline.verify (Pipeline.Executable exe) in
              let label =
                Printf.sprintf "%s/%s/fuse=%b" model.Model.name
                  (Planner.label planner) fusion
              in
              check_int (label ^ " errors") 0 (Report.error_count report);
              check_int (label ^ " warnings") 0 (Report.warning_count report);
              let executor = Pipeline.executor exe in
              let plan = exe.Pipeline.fused.Pipeline.fused_memplan in
              check_bool (label ^ " executor runs the fused plan") true
                (Executor.plan executor == plan);
              check_int (label ^ " footprint == plan")
                plan.Echo_exec.Memplan.arena_bytes
                (Executor.footprint_bytes executor);
              let rw = pl.Pipeline.rewritten.Pipeline.report in
              if Planner.label planner = "stash-all" then
                check_bool (label ^ " empty selection planned once") true
                  (rw.Pass.optimised_mem == rw.Pass.baseline_mem))
            [ true; false ])
        matrix_planners)
    (zoo_models ())

(* The executed slab against the exact-size buffer pool it replaced. For
   every zoo model x planner the fused executable's arena may not exceed
   the pool's (the footprints below were measured on the pool executor,
   same graphs and plans), and what the executor allocated — its slab, the
   persistent values and the largest workspace — is exactly the footprint
   it reports. *)
let pool_footprints =
  [
    ("lstm-lm", "stash-all", 117636); ("lstm-lm", "echo", 107140);
    ("lstm-lm", "checkpoint-sqrt", 110212); ("lstm-lm", "dp-bptt", 108420);
    ("nmt-attn", "stash-all", 14396); ("nmt-attn", "echo", 13676);
    ("nmt-attn", "checkpoint-sqrt", 13420); ("nmt-attn", "dp-bptt", 12868);
    ("deepspeech2", "stash-all", 8996); ("deepspeech2", "echo", 8996);
    ("deepspeech2", "checkpoint-sqrt", 8788); ("deepspeech2", "dp-bptt", 8692);
    ("transformer-enc", "stash-all", 12692); ("transformer-enc", "echo", 11092);
    ("transformer-enc", "checkpoint-sqrt", 10708);
    ("transformer-enc", "dp-bptt", 10900);
  ]

let test_zoo_slab_within_pool () =
  List.iter
    (fun model ->
      let opt = Pipeline.optimize (Pipeline.differentiate (Pipeline.of_model model)) in
      List.iter
        (fun name ->
          let rw =
            Pipeline.rewrite ~device:dev ~planner:(Planner.instantiate name) opt
          in
          let e =
            Pipeline.executor
              (Pipeline.compile (Pipeline.fuse ~enabled:true (Pipeline.plan rw)))
          in
          let label = model.Model.name ^ "/" ^ name in
          let plan = Executor.plan e in
          let footprint = Executor.footprint_bytes e in
          let pool =
            List.find_map
              (fun (m, p, bytes) ->
                if m = model.Model.name && p = name then Some bytes else None)
              pool_footprints
          in
          (match pool with
          | Some pool ->
            check_bool (label ^ " slab arena <= pool arena") true
              (footprint <= pool)
          | None -> Alcotest.failf "%s: no pool footprint recorded" label);
          check_bool (label ^ " arena >= live peak") true
            (footprint >= plan.Echo_exec.Memplan.live_peak_bytes);
          check_int (label ^ " footprint == bytes allocated") footprint
            (Executor.allocated_bytes e))
        [ "stash-all"; "echo"; "checkpoint-sqrt"; "dp-bptt" ])
    (zoo_models ())

let test_every_stage_verifies_clean () =
  let model = (Language_model.build tiny_lm_cfg).Language_model.model in
  let src = Pipeline.of_model model in
  let tr = Pipeline.differentiate src in
  let opt = Pipeline.optimize tr in
  let rw =
    Pipeline.rewrite ~device:dev
      ~planner:(Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo")
      opt
  in
  let pl = Pipeline.plan rw in
  let fu = Pipeline.fuse ~enabled:true pl in
  let exe = Pipeline.compile fu in
  List.iter
    (fun (name, stage) ->
      check_int (name ^ " clean") 0
        (Report.error_count (Pipeline.verify stage)))
    [
      ("source", Pipeline.Source src);
      ("training", Pipeline.Training tr);
      ("optimized", Pipeline.Optimized opt);
      ("rewritten", Pipeline.Rewritten rw);
      ("planned", Pipeline.Planned pl);
      ("fused", Pipeline.Fused fu);
      ("executable", Pipeline.Executable exe);
    ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "analysis",
      [
        t "report collects, counts and filters" test_report_collects_and_counts;
        t "check_exn raises on error findings" test_check_exn_raises_on_errors;
        t "Graph.check is clean on real graphs"
          test_graph_check_clean_and_validate;
        t "Assign.check collects every corruption"
          test_assign_check_collects_all_corruptions;
        t "schedule checker fires on broken order"
          test_schedule_checker_fires_on_broken_order;
        t "offset checker fires on overlap and escape"
          test_offset_checker_fires_on_overlap_and_escape;
        t "alias checker fires on shared live buffers"
          test_alias_checker_fires_on_shared_live_buffer;
        t "in-place checker fires on a retargeted donor"
          test_inplace_checker_fires_on_retargeted_donor;
        t "recompute checker fires on a reseeded clone"
          test_recompute_checker_fires_on_reseeded_clone;
        t "recompute checker fires on a late clone"
          test_recompute_checker_fires_on_late_clone;
        t "fusion checker fires on region crossing"
          test_fusion_checker_fires_on_region_crossing;
        t "fusion checker fires on hand-made corruptions"
          test_fusion_checker_fires_on_handmade_corruptions;
        t "determinism checker notes shared seeds"
          test_determinism_notes_shared_seeds;
        t "zoo x policy x fusion matrix lints clean"
          test_zoo_matrix_lints_clean;
        t "zoo slab arena within the exact-size pool"
          test_zoo_slab_within_pool;
        t "every pipeline stage verifies clean"
          test_every_stage_verifies_clean;
      ] );
  ]
