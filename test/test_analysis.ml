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
module Memplan = Echo_exec.Memplan
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

(* ---------------- satellite ports: Graph.check / range check -------- *)

let test_graph_check_clean_and_validate () =
  let g = lm_training_graph () in
  check_bool "graph check clean" true (Report.is_clean (Graph.check g));
  Graph.validate g

let test_range_check_collects_all_corruptions () =
  let g = rewritten "stash-all" in
  let plan = Memplan.plan g in
  check_bool "sound plan is clean" true
    (Report.is_clean (Verify.check_ranges g plan));
  (* Two independent corruptions on one plan -> at least two diagnostics
     in one report: the checker collects, it does not stop at the first. *)
  let corrupted =
    require "overlap_slots"
      (Mutate.overlap_slots g (require "escape_slot" (Mutate.escape_slot plan)))
  in
  let report = Verify.check_ranges g corrupted in
  check_bool "collects at least two" true (Report.error_count report >= 2);
  check_bool "the escape is one" true (has_error ~check:"arena" report);
  check_bool "the overlap is another" true (has_error ~check:"alias" report)

(* ---------------- negative tests: one per checker ---------------- *)

let test_schedule_checker_fires_on_broken_order () =
  let g = rewritten "stash-all" in
  check_int "sound schedule" 0 (Report.error_count (Verify.check_schedule g));
  let schedule = require "swap_schedule" (Mutate.swap_schedule g) in
  check_bool "fires" true
    (has_error ~check:"schedule" (Verify.check_schedule ~schedule g))

let test_offset_checker_fires_on_overlap_and_escape () =
  let g = rewritten "stash-all" in
  let plan = Memplan.plan g in
  check_int "sound offsets" 0 (Report.error_count (Verify.check_ranges g plan));
  let overlapped = require "overlap" (Mutate.overlap_slots g plan) in
  check_bool "overlap fires" true
    (has_error ~check:"alias" (Verify.check_ranges g overlapped));
  check_bool "escape fires" true
    (has_error ~check:"arena"
       (Verify.check_ranges g (require "escape" (Mutate.escape_slot plan))))

(* A recorded lifetime that differs from the re-derived last read is
   reported even when no two ranges overlap: the expiry is what the
   executor frees against. *)
let test_expiry_checker_fires_on_recorded_lifetime () =
  let g = rewritten "stash-all" in
  let plan = Memplan.plan g in
  let victim =
    List.find
      (fun s ->
        plan.Memplan.offset_of_slot.(s) >= 0
        && plan.Memplan.expiry_of_slot.(s) <> max_int)
      (List.init (Graph.node_count g) Fun.id)
  in
  let expiry_of_slot = Array.copy plan.Memplan.expiry_of_slot in
  expiry_of_slot.(victim) <- expiry_of_slot.(victim) + 1;
  let report = Verify.check_ranges g { plan with Memplan.expiry_of_slot } in
  check_int "one finding" 1 (Report.error_count report);
  check_bool "an arena finding" true (has_error ~check:"arena" report)

(* The layout a fused executable runs, checked under its own fusion plan. *)
let test_alias_checker_fires_on_shared_live_buffer () =
  let g = rewritten "stash-all" in
  let exe = Pipeline.compile_graph ~fuse:true g in
  let plan = Executor.plan (Pipeline.executor exe) in
  check_bool "fused" true (plan.Memplan.fusion <> None);
  check_int "sound layout" 0 (Report.error_count (Verify.check_ranges g plan));
  let corrupted = require "overlap_slots" (Mutate.overlap_slots g plan) in
  check_bool "fires" true
    (has_error ~check:"alias" (Verify.check_ranges g corrupted))

let test_inplace_checker_fires_on_retargeted_donor () =
  let g = rewritten "stash-all" in
  let plan =
    Executor.plan (Pipeline.executor (Pipeline.compile_graph ~fuse:false g))
  in
  let corrupted =
    require "retarget_inplace" (Mutate.retarget_inplace g plan)
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

(* ---------------- slot-indexed analyses against brute force ---------- *)

(* Liveness and the range checkers index everything by schedule slot and
   find overlapping ranges with one sweep. The oracles here re-derive the
   same facts the slow, obvious way: node lookups by linear search, reads
   by scanning every node's inputs, and every pair of placed ranges. *)

module Liveness = Echo_exec.Liveness
module Race = Echo_analysis.Race
module Rng = Echo_tensor.Rng

(* The schedule, a slot-by-id lookup and every slot's last read: its own
   slot at least, the slot of the latest instruction that reads it (a
   fused member's reads happen at its group root), [max_int] for graph
   outputs. *)
type brute = {
  nodes : Node.t array;
  outputs : Node.t list;
  slot : int -> int;  (** -1 for a node outside the graph *)
  interior : bool array;
  last : int array;
}

let brute ?fusion graph =
  let nodes = Array.of_list (Graph.nodes graph) in
  let n = Array.length nodes in
  let slot id =
    let rec go i =
      if i >= n then -1 else if Node.id nodes.(i) = id then i else go (i + 1)
    in
    go 0
  in
  let reader = Array.init n Fun.id and interior = Array.make n false in
  Option.iter
    (fun f ->
      List.iter
        (fun g ->
          let root = slot (Node.id g.Fuse.root) in
          List.iter
            (fun m ->
              let s = slot (Node.id m) in
              if s >= 0 then begin
                reader.(s) <- root;
                if s <> root then interior.(s) <- true
              end)
            g.Fuse.members)
        (Fuse.groups f))
    fusion;
  let last =
    Array.init n (fun s ->
        if List.exists (Node.equal nodes.(s)) (Graph.outputs graph) then max_int
        else begin
          let acc = ref s in
          Array.iteri
            (fun c consumer ->
              List.iter
                (fun i -> if Node.equal i nodes.(s) then acc := max !acc reader.(c))
                (Node.inputs consumer))
            nodes;
          !acc
        end)
  in
  { nodes; outputs = Graph.outputs graph; slot; interior; last }

let persistent n =
  match Node.op n with Op.Placeholder | Op.Variable -> true | _ -> false

(* [Liveness.analyse] against the brute-force intervals: the interval
   list, the per-id lookup, the death table, and an [of_intervals]
   rebuild of the same list. *)
let liveness_matches ?fusion graph =
  let b = brute ?fusion graph in
  let expected =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun s n ->
              if persistent n || b.interior.(s) then None
              else Some (Node.id n, s, b.last.(s)))
            b.nodes))
  in
  let flat t =
    List.map
      (fun i -> (Node.id i.Liveness.node, i.Liveness.def_step, i.Liveness.last_step))
      (Liveness.intervals t)
  in
  let steps = Array.length b.nodes in
  let deaths t =
    List.init steps (fun k -> List.map Node.id (Liveness.dying_at t k))
  in
  let expected_deaths =
    List.init steps (fun k ->
        List.rev
          (List.filter_map
             (fun (id, _, last) -> if last = k then Some id else None)
             expected))
  in
  let t = Liveness.analyse ?fusion graph in
  let rebuilt = Liveness.of_intervals ~steps (Liveness.intervals t) in
  flat t = expected
  && flat rebuilt = expected
  && deaths t = expected_deaths
  && deaths rebuilt = expected_deaths
  && List.for_all
       (fun (id, def, last) ->
         let i = Liveness.interval t id in
         i.Liveness.def_step = def && i.Liveness.last_step = last)
       expected
  && Array.for_all
       (fun n ->
         (not (persistent n || b.interior.(b.slot (Node.id n))))
         ||
         match Liveness.interval t (Node.id n) with
         | _ -> false
         | exception Not_found -> true)
       b.nodes

(* A random DAG with shared operands, matmuls and single-consumer
   elementwise chains (fusion material), reaching one to three outputs. *)
let random_dag seed =
  let rng = Rng.create seed in
  let leaf () =
    if Rng.int rng 2 = 0 then Node.placeholder [| 4; 4 |]
    else Node.variable [| 4; 4 |]
  in
  let pool = ref [ leaf (); leaf () ] in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  for _ = 1 to 10 + Rng.int rng 30 do
    let n =
      match Rng.int rng 7 with
      | 0 -> Node.add (pick ()) (pick ())
      | 1 -> Node.tanh_ (pick ())
      | 2 -> Node.matmul (pick ()) (pick ())
      | 3 -> Node.mul (pick ()) (pick ())
      | 4 -> leaf ()
      | _ ->
        let chain = ref (Node.neg (pick ())) in
        for _ = 1 to Rng.int rng 4 do
          chain := Node.sigmoid (Node.add !chain (pick ()))
        done;
        !chain
    in
    pool := n :: !pool
  done;
  let outputs = List.init (1 + Rng.int rng 3) (fun _ -> pick ()) in
  Graph.create (List.hd !pool :: outputs)

(* The tiny zoo through rewrite, plan and fuse, fused and unfused: a graph,
   its fusion plan and the plan the executor would run. *)
let zoo_artifacts =
  lazy
    (List.concat_map
       (fun model ->
         let opt =
           Pipeline.optimize (Pipeline.differentiate (Pipeline.of_model model))
         in
         let planner = Planner.instantiate ~knobs:[ ("budget", 0.2) ] "echo" in
         let pl = Pipeline.plan (Pipeline.rewrite ~device:dev ~planner opt) in
         List.map
           (fun enabled ->
             let f = Pipeline.fuse ~enabled pl in
             (f.Pipeline.graph, f.Pipeline.fusion, f.Pipeline.fused_memplan))
           [ true; false ])
       (zoo_models ()))

let random_artifact seed =
  if seed mod 3 = 0 then begin
    let zoo = Lazy.force zoo_artifacts in
    List.nth zoo (seed / 3 mod List.length zoo)
  end
  else begin
    let g = random_dag seed in
    let fusion = if seed mod 2 = 0 then Some (Fuse.analyse g) else None in
    (g, fusion, Memplan.plan ?fusion g)
  end

let prop_liveness_brute_force =
  QCheck.Test.make ~name:"liveness == brute-force intervals" ~count:90
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, fusion, _ = random_artifact seed in
      liveness_matches ?fusion g)

(* A plan with a few corruptions seeded: a mutator's, then ranges moved
   onto another's offset or shifted by whole elements (in part onto a
   neighbour, or below the slab, which leaves the slot with no range). *)
let corrupt_layout rng graph (plan : Memplan.report) =
  let base =
    match Rng.int rng 5 with
    | 0 -> Mutate.overlap_slots graph plan
    | 1 -> Mutate.retarget_inplace graph plan
    | 2 -> Mutate.escape_slot plan
    | 3 -> Mutate.overlap_partially graph plan
    | _ -> None
  in
  let base = Option.value base ~default:plan in
  let off = Array.copy base.Memplan.offset_of_slot in
  let slots =
    Array.of_list
      (List.filter (fun s -> off.(s) >= 0) (List.init (Array.length off) Fun.id))
  in
  let n = Array.length slots in
  if n > 0 then
    for _ = 1 to Rng.int rng 5 do
      let s = slots.(Rng.int rng n) in
      match Rng.int rng 4 with
      | 0 -> off.(s) <- off.(slots.(Rng.int rng n))
      | 1 -> off.(s) <- off.(s) + (Node.elem_bytes * (Rng.int rng 64 - 32))
      | _ -> ()
    done;
  { base with Memplan.offset_of_slot = off }

(* The placed ranges as both checkers see them — each at its slot with the
   brute-force last read — and every pair of them live at a common step
   that a scan over the ranges sorted by offset meets: by rank, the later
   one starting inside the earlier one. *)
let brute_pairs b (plan : Memplan.report) =
  let entries =
    List.filter_map
      (fun p ->
        let off = plan.Memplan.offset_of_slot.(p) in
        if off < 0 then None
        else Some (b.nodes.(p), off, Node.size_bytes b.nodes.(p), p, b.last.(p)))
      (List.init (Array.length b.nodes) Fun.id)
  in
  let arr = Array.of_list entries in
  Array.sort (fun (_, o1, _, _, _) (_, o2, _, _, _) -> compare o1 o2) arr;
  let pairs = ref [] in
  Array.iteri
    (fun i ((_, alo, asz, adef, alast) as a) ->
      Array.iteri
        (fun j ((_, blo, _, bdef, blast) as b) ->
          if j > i && blo < alo + asz && adef <= blast && bdef <= alast then
            pairs := (a, b) :: !pairs)
        arr)
    arr;
  List.rev !pairs

let pair_findings report checks =
  List.filter_map
    (fun d ->
      match d.Echo_diag.nodes with
      | [ _; _ ] when List.mem d.Echo_diag.check checks ->
        Some (d.Echo_diag.check, d.Echo_diag.nodes)
      | _ -> None)
    (Report.diags report)

(* What [Verify.check_ranges] must say about each pair: an exact handover
   is judged as an in-place transfer, anything else is an alias. *)
let verify_oracle ?fusion b pairs =
  let externals t =
    match fusion with
    | None -> None
    | Some f ->
      List.find_map
        (fun g ->
          if Node.equal g.Fuse.root t then Some g.Fuse.externals else None)
        (List.rev (Fuse.groups f))
  in
  let handover (dn, _, dsz, _, _) (tn, _, tsz, _, _) =
    let nodes = [ Node.id tn; Node.id dn ] in
    let reads = Option.value (externals tn) ~default:(Node.inputs tn) in
    List.filter_map Fun.id
      [
        (if dsz <> tsz then Some ("inplace", nodes) else None);
        (if Memplan.inplace_capable tn then None else Some ("inplace", nodes));
        (if List.exists (Node.equal dn) reads then None else Some ("inplace", nodes));
        (if List.exists (Node.equal dn) b.outputs then Some ("inplace", nodes)
         else None);
      ]
  in
  List.concat_map
    (fun (((an, alo, _, adef, alast) as a), ((bn, blo, _, bdef, blast) as b')) ->
      if alo = blo && bdef = alast then handover a b'
      else if alo = blo && adef = blast then handover b' a
      else [ ("alias", [ Node.id an; Node.id bn ]) ])
    pairs

let race_oracle pairs =
  List.concat_map
    (fun ((n1, base1, sz1, def1, last1), (n2, base2, sz2, def2, last2)) ->
      if Node.equal n1 n2 then []
      else begin
        let same = base1 = base2 && sz1 = sz2 in
        (if def1 < def2 && if same then last1 > def2 else last1 >= def2 then
           [ ("race-address", [ Node.id n2; Node.id n1 ]) ]
         else [])
        @
        if def2 < def1 && if same then last2 > def1 else last2 >= def1 then
          [ ("race-address", [ Node.id n1; Node.id n2 ]) ]
        else []
      end)
    pairs

let prop_range_checks_brute_force =
  QCheck.Test.make ~name:"range checks == pairwise oracle" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, fusion, plan = random_artifact seed in
      let plan = corrupt_layout (Rng.create seed) g plan in
      let b = brute ?fusion g in
      let pairs = brute_pairs b plan in
      pair_findings (Verify.check_ranges g plan) [ "alias"; "inplace" ]
      = verify_oracle ?fusion b pairs
      && pair_findings (Race.check_addresses g plan) [ "race-address" ]
         = race_oracle pairs)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "analysis",
      [
        t "report collects, counts and filters" test_report_collects_and_counts;
        t "check_exn raises on error findings" test_check_exn_raises_on_errors;
        t "Graph.check is clean on real graphs"
          test_graph_check_clean_and_validate;
        t "range check collects every corruption"
          test_range_check_collects_all_corruptions;
        t "schedule checker fires on broken order"
          test_schedule_checker_fires_on_broken_order;
        t "offset checker fires on overlap and escape"
          test_offset_checker_fires_on_overlap_and_escape;
        t "expiry checker fires on a recorded lifetime"
          test_expiry_checker_fires_on_recorded_lifetime;
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
        QCheck_alcotest.to_alcotest prop_liveness_brute_force;
        QCheck_alcotest.to_alcotest prop_range_checks_brute_force;
      ] );
  ]
