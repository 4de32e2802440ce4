(* Graph optimisation passes (CSE, folding, fusion analysis), the simulated
   profiler, and the policy autotuner. *)

open Echo_tensor
open Echo_ir
open Echo_opt
open Echo_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dev = Echo_gpusim.Device.titan_xp

let outputs_equal g1 g2 ~feeds =
  List.for_all2 Tensor.equal (Interp.eval g1 ~feeds) (Interp.eval g2 ~feeds)

(* CSE *)

let test_cse_unifies_duplicates () =
  let x = Node.placeholder [| 4 |] in
  let a = Node.sigmoid x and b = Node.sigmoid x in
  let out = Node.add a b in
  let g = Graph.create [ out ] in
  let g' = Cse.run g in
  check_int "one sigmoid survives" 3 (Graph.node_count g');
  check_int "counted" 1 (Cse.count_redundant g)

let test_cse_respects_distinct_attrs () =
  let x = Node.placeholder [| 4 |] in
  let a = Node.scale 2.0 x and b = Node.scale 3.0 x in
  let g = Graph.create [ Node.add a b ] in
  check_int "no unification" 0 (Cse.count_redundant g)

let test_cse_keeps_placeholders () =
  let a = Node.placeholder [| 2 |] and b = Node.placeholder [| 2 |] in
  let g = Graph.create [ Node.add a b ] in
  check_int "placeholders distinct" 0 (Cse.count_redundant g);
  check_int "three nodes" 3 (Graph.node_count (Cse.run g))

let test_cse_region_barrier () =
  let x = Node.placeholder [| 4 |] in
  let f = Node.sigmoid x in
  let bwd = Node.sigmoid ~region:Node.Backward x in
  let g = Graph.create [ Node.add ~region:Node.Backward f bwd ] in
  (* same op, same input, different region: must not unify *)
  check_int "no cross-region unification" 0 (Cse.count_redundant g)

let test_cse_semantics_preserved () =
  let x = Node.placeholder [| 3; 3 |] in
  let y = Node.tanh_ (Node.matmul x x) in
  let z = Node.tanh_ (Node.matmul x x) in
  let g = Graph.create [ Node.mul y z ] in
  let g' = Cse.run g in
  let rng = Rng.create 1 in
  let feeds = [ (x, Tensor.uniform rng [| 3; 3 |] ~lo:(-1.0) ~hi:1.0) ] in
  check_bool "equal outputs" true (outputs_equal g g' ~feeds);
  check_bool "fewer nodes" true (Graph.node_count g' < Graph.node_count g)

let test_cse_chain_cascade () =
  (* duplicates of duplicates collapse transitively *)
  let x = Node.placeholder [| 2 |] in
  let mk () = Node.sq (Node.neg x) in
  let g = Graph.create [ Node.add (mk ()) (mk ()) ] in
  check_int "collapsed to single chain" 4 (Graph.node_count (Cse.run g))

(* Folding *)

let feeds_for x = [ (x, Tensor.of_list1 [ 1.5; -2.0 ]) ]

let test_fold_identities () =
  let x = Node.placeholder [| 2 |] in
  let y = Node.scale 1.0 (Node.add_scalar 0.0 (Node.pow_const 1.0 x)) in
  let g = Graph.create [ Node.neg y ] in
  let g' = Fold.run g in
  check_int "identities removed" 2 (Graph.node_count g');
  check_bool "semantics" true (outputs_equal g g' ~feeds:(feeds_for x))

let test_fold_zero_propagation () =
  let x = Node.placeholder [| 2 |] in
  let z = Node.mul x (Node.zeros [| 2 |]) in
  let out = Node.add x z in
  let g = Graph.create [ out ] in
  let g' = Fold.run (Fold.run g) in
  (* x * 0 -> zeros; x + zeros -> x *)
  check_bool "semantics" true (outputs_equal g g' ~feeds:(feeds_for x));
  check_int "only the placeholder remains" 1 (Graph.node_count g')

let test_fold_double_negation () =
  let x = Node.placeholder [| 2 |] in
  let g = Graph.create [ Node.sq (Node.neg (Node.neg x)) ] in
  let g' = Fold.run g in
  check_int "neg pair removed" 2 (Graph.node_count g');
  check_bool "semantics" true (outputs_equal g g' ~feeds:(feeds_for x))

let test_fold_scale_fusion () =
  let x = Node.placeholder [| 2 |] in
  let g = Graph.create [ Node.scale 2.0 (Node.scale 3.0 x) ] in
  let g' = Fold.run g in
  check_int "one scale" 2 (Graph.node_count g');
  check_bool "semantics" true (outputs_equal g g' ~feeds:(feeds_for x))

let test_fold_shape_noops () =
  let x = Node.placeholder [| 2; 3 |] in
  let y = Node.reshape [| 2; 3 |] x in
  let z = Node.transpose2d (Node.transpose2d y) in
  let g = Graph.create [ Node.sq z ] in
  let g' = Fold.run (Fold.run g) in
  check_int "noops removed" 2 (Graph.node_count g')

(* Float attributes are keyed by their bits: [%g] prints 0.5 and
   0.5000001 alike, but they are different values. *)
let test_cse_exact_float_attrs () =
  let x = Node.placeholder [| 4 |] in
  let g = Graph.create [ Node.sub (Node.scale 0.5 x) (Node.scale 0.5000001 x) ] in
  check_int "nothing to merge" 0 (Cse.count_redundant g);
  check_int "both scales survive" 4 (Graph.node_count (Cse.run g));
  let y = Node.placeholder [| 4 |] in
  let h = Graph.create [ Node.sub (Node.add_scalar 1e-9 y) (Node.add_scalar 1.0000001e-9 y) ] in
  check_int "tiny constants differ" 0 (Cse.count_redundant h)

let test_cse_returns_input_when_unchanged () =
  let x = Node.placeholder [| 4 |] in
  let g = Graph.create [ Node.add (Node.sigmoid x) (Node.tanh_ x) ] in
  check_bool "same graph" true (Cse.run g == g)

let test_fold_returns_input_when_unchanged () =
  let x = Node.placeholder [| 2; 2 |] in
  let g = Graph.create [ Node.add (Node.scale 2.0 x) (Node.transpose2d x) ] in
  check_bool "same graph" true (Fold.run g == g);
  (* The optimisation pipeline's confirming fold pass builds nothing. *)
  let folded = Graph.create [ Node.scale 1.0 (Node.sigmoid x) ] in
  let before = Graph.created_count () in
  let g', stats = Pipeline.run folded in
  check_int "one fold" 1 stats.Pipeline.folded;
  check_int "one graph built, by the folding pass" 1 (Graph.created_count () - before);
  check_bool "confirming pass hands it back" true (Fold.run g' == g')

let test_fold_keeps_region () =
  let x = Node.placeholder [| 2 |] in
  let b = Node.scale ~region:Node.Backward 0.0 x in
  let out = Node.sq ~region:Node.Backward b in
  let g = Graph.create [ out ] in
  let g' = Fold.run g in
  List.iter
    (fun n ->
      if Node.op n = Op.Zeros then
        check_bool "replacement stays backward" true (Node.region n = Node.Backward))
    (Graph.nodes g')

(* Pipeline on a real training graph *)

let lm_graph () =
  let open Echo_models in
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 60;
        embed = 12;
        hidden = 12;
        layers = 2;
        seq_len = 6;
        batch = 3;
        dropout = 0.2;
      }
  in
  let training = Model.training lm.Language_model.model in
  let feeds =
    let rng = Rng.create 9 in
    let ids n = Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 60)) in
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  (training.Echo_autodiff.Grad.graph, feeds)

let test_pipeline_on_training_graph () =
  let g, feeds = lm_graph () in
  let g', stats = Pipeline.run g in
  check_bool "removes something" true (stats.Pipeline.nodes_after < stats.Pipeline.nodes_before);
  check_bool "semantics preserved" true (outputs_equal g g' ~feeds);
  Graph.validate g'

let test_pipeline_composes_with_echo () =
  let g, feeds = lm_graph () in
  let g', _ = Pipeline.run g in
  let rewritten, report =
    Echo_core.Pass.run_instance ~device:dev
      (Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.1) ] "echo")
      g'
  in
  check_bool "echo after pipeline still sound" true (outputs_equal g' rewritten ~feeds);
  check_bool "no regression" true (Echo_core.Pass.reduction report >= 1.0)

(* Fusion analysis *)

let members p =
  List.fold_left (fun a g -> a + List.length g.Fuse.members) 0 (Fuse.groups p)

let test_fusion_chain_detected () =
  let x = Node.placeholder [| 64 |] in
  let y = Node.sq (Node.tanh_ (Node.sigmoid (Node.neg x))) in
  let g = Graph.create [ y ] in
  let p = Fuse.analyse g in
  check_int "one group" 1 (Fuse.group_count p);
  check_int "four members" 4 (members p);
  check_int "three launches saved" 3 (Fuse.interior_count p)

let test_fusion_breaks_at_gemm () =
  let x = Node.placeholder [| 8; 8 |] in
  let y = Node.sigmoid (Node.matmul (Node.tanh_ x) x) in
  let g = Graph.create [ y ] in
  (* tanh alone (single, no group) and sigmoid alone: no group of >= 2 *)
  check_int "no groups across gemm" 0 (Fuse.group_count (Fuse.analyse g))

let test_fusion_breaks_at_fanout () =
  let x = Node.placeholder [| 8 |] in
  let a = Node.sigmoid x in
  let b = Node.sq a and c = Node.neg a in
  let g = Graph.create [ Node.add b c ] in
  (* a has two consumers: b and c cannot join through it... but the Add can
     join its first input chain. Conservative single-consumer rule. *)
  check_bool "limited fusion" true (members (Fuse.analyse g) <= 3)

let test_fusion_time_saves_launches () =
  let x = Node.placeholder [| 64 |] in
  let y = Node.sq (Node.tanh_ (Node.sigmoid (Node.neg x))) in
  let g = Graph.create [ y ] in
  let t_unfused = Echo_gpusim.Costmodel.graph_time dev g in
  let t_fused = Echo_gpusim.Costmodel.fused_graph_time dev g in
  let saved = t_unfused -. t_fused in
  (* The fused group pays one launch instead of four, and its interiors
     never round-trip through memory, so the saving is the three launches
     plus the avoided traffic — never less than the launches alone. *)
  let three_launches = 3.0 *. dev.Echo_gpusim.Device.launch_overhead_s in
  check_bool "saves at least 3 launches" true (saved >= three_launches -. 1e-15);
  check_bool "also saves interior traffic" true (saved > three_launches)

(* Timeline / profiler *)

let test_timeline_events_contiguous () =
  let x = Node.placeholder [| 16 |] in
  let y = Node.sq (Node.sigmoid x) in
  let tl = Echo_gpusim.Timeline.simulate dev (Graph.create [ y ]) in
  let evs = Echo_gpusim.Timeline.events tl in
  check_int "two kernels" 2 (List.length evs);
  let e1 = List.nth evs 0 and e2 = List.nth evs 1 in
  check_bool "back to back" true
    (Float.abs (e2.Echo_gpusim.Timeline.start_s
                -. (e1.Echo_gpusim.Timeline.start_s +. e1.Echo_gpusim.Timeline.duration_s))
    < 1e-15);
  check_bool "total matches" true
    (Float.abs (Echo_gpusim.Timeline.total_s tl
                -. Echo_gpusim.Costmodel.graph_time dev (Graph.create [ y ]))
    < 1e-15)

let test_timeline_summary_shares () =
  let x = Node.placeholder [| 32; 32 |] in
  let y = Node.sigmoid (Node.matmul x x) in
  let tl = Echo_gpusim.Timeline.simulate dev (Graph.create [ y ]) in
  let lines = Echo_gpusim.Timeline.summary tl in
  let total_share = List.fold_left (fun acc l -> acc +. l.Echo_gpusim.Timeline.share) 0.0 lines in
  check_bool "shares sum to 1" true (Float.abs (total_share -. 1.0) < 1e-9);
  check_bool "matmul present" true
    (List.exists (fun l -> l.Echo_gpusim.Timeline.family = "Matmul") lines)

let test_timeline_chrome_trace_json () =
  let x = Node.placeholder [| 4 |] in
  let tl = Echo_gpusim.Timeline.simulate dev (Graph.create [ Node.neg x ]) in
  let json = Echo_gpusim.Timeline.to_chrome_trace tl in
  check_bool "bracketed" true
    (String.length json >= 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  check_bool "has event" true (String.length json > 10)

let test_timeline_launch_share () =
  let x = Node.placeholder [| 2 |] in
  (* tiny kernels: launch-dominated *)
  let y = Node.sq (Node.neg x) in
  let tl = Echo_gpusim.Timeline.simulate dev (Graph.create [ y ]) in
  check_bool "launch dominated" true (Echo_gpusim.Timeline.launch_share dev tl > 0.9)

(* Autotune *)

(* fit_memory — the fault-tolerant runtime's escalation ladder. Rungs are
   judged by planned *arena* footprint (what the compiled slot executor
   actually allocates) and the first fit wins. The arena itself is not
   monotone along the ladder (recompute clones add buffers on small graphs),
   but first-fit escalation is: a smaller budget never picks an earlier
   rung. *)

let ladder_arenas g =
  List.map
    (fun planner ->
      let o = Echo_core.Autotune.run_one ~device:dev planner g in
      (Echo_core.Autotune.label o, Echo_core.Autotune.fit_footprint o))
    Echo_core.Autotune.fit_ladder

let test_fit_memory_below_floor () =
  let g, _ = lm_graph () in
  let arenas = ladder_arenas g in
  let floor = List.fold_left (fun acc (_, a) -> min acc a) max_int arenas in
  (match Echo_core.Autotune.fit_memory ~device:dev g ~budget_bytes:(floor - 1) with
  | None -> ()
  | Some _ -> Alcotest.fail "below the whole ladder: must be infeasible");
  match Echo_core.Autotune.fit_memory ~device:dev g ~budget_bytes:floor with
  | Some o ->
    check_int "floor budget fits exactly" floor (Echo_core.Autotune.fit_footprint o)
  | None -> Alcotest.fail "the ladder floor itself must fit"

let test_fit_memory_exact_rung () =
  let g, _ = lm_graph () in
  let arenas = ladder_arenas g in
  (* budget pinned exactly to a mid-ladder rung's arena *)
  let _, budget = List.nth arenas 2 (* echo(3%) *) in
  let expected_policy, expected_arena = List.find (fun (_, a) -> a <= budget) arenas in
  match Echo_core.Autotune.fit_memory ~device:dev g ~budget_bytes:budget with
  | None -> Alcotest.fail "a rung fits by construction"
  | Some o ->
    check_bool "first fitting rung chosen" true
      (Echo_core.Autotune.label o = expected_policy);
    check_int "footprint is that rung's arena" expected_arena
      (Echo_core.Autotune.fit_footprint o)

let test_fit_memory_first_fit_monotone () =
  let g, _ = lm_graph () in
  let arenas = ladder_arenas g in
  let floor = List.fold_left (fun acc (_, a) -> min acc a) max_int arenas in
  let top = List.fold_left (fun acc (_, a) -> max acc a) 0 arenas in
  let index label =
    let rec go i = function
      | [] -> Alcotest.fail "policy not on the ladder"
      | p :: _ when Echo_core.Planner.label p = label -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 Echo_core.Autotune.fit_ladder
  in
  let budgets =
    List.sort_uniq
      (fun a b -> compare b a)
      ((top + 1) :: floor :: List.map snd arenas)
  in
  let last = ref (-1) in
  List.iter
    (fun budget ->
      match Echo_core.Autotune.fit_memory ~device:dev g ~budget_bytes:budget with
      | None -> Alcotest.fail "budgets at or above the floor must fit"
      | Some o ->
        check_bool "fits its budget" true
          (Echo_core.Autotune.fit_footprint o <= budget);
        let i = index (Echo_core.Autotune.label o) in
        check_bool "escalation is monotone as budgets shrink" true (i >= !last);
        last := i)
    budgets

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "opt.cse",
      [
        t "unifies duplicates" test_cse_unifies_duplicates;
        t "distinct attrs" test_cse_respects_distinct_attrs;
        t "keeps placeholders" test_cse_keeps_placeholders;
        t "region barrier" test_cse_region_barrier;
        t "semantics preserved" test_cse_semantics_preserved;
        t "chain cascade" test_cse_chain_cascade;
        t "exact float attrs" test_cse_exact_float_attrs;
        t "unchanged graph returned" test_cse_returns_input_when_unchanged;
      ] );
    ( "opt.fold",
      [
        t "identities" test_fold_identities;
        t "zero propagation" test_fold_zero_propagation;
        t "double negation" test_fold_double_negation;
        t "scale fusion" test_fold_scale_fusion;
        t "shape noops" test_fold_shape_noops;
        t "keeps region" test_fold_keeps_region;
        t "unchanged graph returned" test_fold_returns_input_when_unchanged;
      ] );
    ( "opt.pipeline",
      [
        t "on training graph" test_pipeline_on_training_graph;
        t "composes with echo" test_pipeline_composes_with_echo;
      ] );
    ( "opt.fusion",
      [
        t "chain detected" test_fusion_chain_detected;
        t "breaks at gemm" test_fusion_breaks_at_gemm;
        t "breaks at fan-out" test_fusion_breaks_at_fanout;
        t "time saves launches" test_fusion_time_saves_launches;
      ] );
    ( "timeline",
      [
        t "events contiguous" test_timeline_events_contiguous;
        t "summary shares" test_timeline_summary_shares;
        t "chrome trace json" test_timeline_chrome_trace_json;
        t "launch share" test_timeline_launch_share;
      ] );
    ( "autotune",
      [
        t "fit_memory below floor" test_fit_memory_below_floor;
        t "fit_memory exact rung" test_fit_memory_exact_rung;
        t "fit_memory first-fit monotone" test_fit_memory_first_fit_monotone;
      ] );
  ]
