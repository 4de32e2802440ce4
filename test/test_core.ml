(* The Echo pass itself: stash analysis, selection policies, the mirror
   rewrite, and end-to-end policy behaviour — including the paper's key
   invariant that every rewrite preserves training semantics bit for bit. *)

open Echo_tensor
open Echo_ir
open Echo_core
open Echo_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dev = Echo_gpusim.Device.titan_xp

(* A small but representative training graph: 2-layer MLP with sigmoid and
   dropout, cross-entropy loss. *)
let mlp_training ~batch ~dim ~classes ~seed =
  let w1 = Node.variable ~name:"w1" [| dim; dim |] in
  let w2 = Node.variable ~name:"w2" [| classes; dim |] in
  let x = Node.placeholder ~name:"x" [| batch; dim |] in
  let labels = Node.placeholder ~name:"y" [| batch |] in
  let h = Node.sigmoid ~name:"h" (Node.matmul ~trans_b:true x w1) in
  let h = Node.mul h (Node.dropout_mask ~p:0.3 ~seed [| batch; dim |]) in
  let logits = Node.matmul ~trans_b:true h w2 in
  let loss = Node.cross_entropy ~logits ~labels in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[ w1; w2 ] in
  let rng = Rng.create seed in
  let feeds =
    [
      (w1, Tensor.xavier rng [| dim; dim |]);
      (w2, Tensor.xavier rng [| classes; dim |]);
      (x, Tensor.uniform rng [| batch; dim |] ~lo:(-1.0) ~hi:1.0);
      (labels, Tensor.init [| batch |] (fun _ -> float_of_int (Rng.int rng classes)));
    ]
  in
  (training.Echo_autodiff.Grad.graph, feeds)

(* Stash analysis *)

let test_stash_analysis () =
  let graph, _ = mlp_training ~batch:4 ~dim:8 ~classes:3 ~seed:1 in
  let stash = Stash.analyse graph in
  check_bool "nonempty" true (Stash.bytes stash > 0);
  List.iter
    (fun n ->
      check_bool "stashed nodes are forward" true (Node.region n = Node.Forward);
      check_bool "not params/inputs" true (not (Stash.is_persistent_input n));
      check_bool "has backward consumer" true
        (List.exists
           (fun c -> Node.region c = Node.Backward)
           (Graph.consumers graph (Node.id n))))
    (Stash.stashed_nodes stash)

let test_stash_availability () =
  let graph, _ = mlp_training ~batch:4 ~dim:8 ~classes:3 ~seed:1 in
  let stash = Stash.analyse graph in
  List.iter
    (fun n ->
      match Node.op n with
      | Op.Variable | Op.Placeholder ->
        check_bool "persistent available" true (Stash.available_for_backward stash n)
      | _ -> ())
    (Graph.nodes graph)

(* Rewrite *)

let outputs_equal g1 g2 ~feeds =
  let o1 = Interp.eval g1 ~feeds and o2 = Interp.eval g2 ~feeds in
  List.for_all2 Tensor.equal o1 o2

let test_mirror_preserves_semantics () =
  let graph, feeds = mlp_training ~batch:4 ~dim:8 ~classes:3 ~seed:2 in
  let stash = Stash.analyse graph in
  let rewritten = Rewrite.mirror graph ~mirror_ids:(Stash.stashed_ids stash) in
  Graph.validate rewritten;
  check_bool "bitwise equal" true (outputs_equal graph rewritten ~feeds)

let test_mirror_empty_is_identity_semantics () =
  let graph, feeds = mlp_training ~batch:2 ~dim:4 ~classes:2 ~seed:3 in
  let rewritten = Rewrite.mirror graph ~mirror_ids:Ids.Set.empty in
  check_bool "equal" true (outputs_equal graph rewritten ~feeds)

let test_mirror_rejects_backward_node () =
  let graph, _ = mlp_training ~batch:2 ~dim:4 ~classes:2 ~seed:4 in
  let bwd = List.hd (Graph.backward_nodes graph) in
  check_bool "raises" true
    (try
       ignore (Rewrite.mirror graph ~mirror_ids:(Ids.Set.singleton (Node.id bwd)));
       false
     with Invalid_argument _ -> true)

let test_mirror_rejects_variable () =
  let graph, _ = mlp_training ~batch:2 ~dim:4 ~classes:2 ~seed:5 in
  let v =
    List.find (fun n -> Node.op n = Op.Variable) (Graph.nodes graph)
  in
  check_bool "raises" true
    (try
       ignore (Rewrite.mirror graph ~mirror_ids:(Ids.Set.singleton (Node.id v)));
       false
     with Invalid_argument _ -> true)

let test_mirror_rejects_foreign_id () =
  let graph, _ = mlp_training ~batch:2 ~dim:4 ~classes:2 ~seed:6 in
  check_bool "raises" true
    (try
       ignore (Rewrite.mirror graph ~mirror_ids:(Ids.Set.singleton 99_999_999));
       false
     with Invalid_argument _ -> true)

let test_mirror_lazy_clones () =
  (* Mirroring a node with no backward consumers must create no clones. *)
  let x = Node.placeholder [| 4 |] in
  let a = Node.sigmoid x in
  let b = Node.neg a in
  let c = Node.mul ~region:Node.Backward b b in
  let g = Graph.create [ c ] in
  (* a has only forward consumers. *)
  let rewritten = Rewrite.mirror g ~mirror_ids:(Ids.Set.singleton (Node.id a)) in
  check_int "no clones" 0 (Rewrite.clone_count rewritten)

let test_mirror_shared_clone_once () =
  (* One mirrored node read by several backward consumers -> one clone. *)
  let x = Node.placeholder [| 4 |] in
  let f = Node.sigmoid x in
  let b1 = Node.neg ~region:Node.Backward f in
  let b2 = Node.sq ~region:Node.Backward f in
  let b3 = Node.mul ~region:Node.Backward f f in
  let g = Graph.create [ b1; b2; b3 ] in
  let rewritten = Rewrite.mirror g ~mirror_ids:(Ids.Set.singleton (Node.id f)) in
  check_int "single shared clone" 1 (Rewrite.clone_count rewritten)

let test_mirror_no_sharing_duplicates () =
  let x = Node.placeholder [| 4 |] in
  let f = Node.sigmoid x in
  let b1 = Node.neg ~region:Node.Backward f in
  let b2 = Node.sq ~region:Node.Backward f in
  let g = Graph.create [ b1; b2 ] in
  let rewritten =
    Rewrite.mirror ~share:false g ~mirror_ids:(Ids.Set.singleton (Node.id f))
  in
  check_int "one clone per consumer" 2 (Rewrite.clone_count rewritten)

let test_mirror_frees_stash () =
  (* Mirroring every stashed node frees those nodes, but their clones'
     inputs become force-stashed — exactly the transitive cost the Echo
     estimator accounts for. The original stash set itself must be gone. *)
  let graph, _ = mlp_training ~batch:16 ~dim:64 ~classes:10 ~seed:7 in
  let stash = Stash.analyse graph in
  let rewritten = Rewrite.mirror graph ~mirror_ids:(Stash.stashed_ids stash) in
  let stash' = Stash.analyse rewritten in
  Ids.Set.iter
    (fun id ->
      check_bool "originally stashed node is freed" true
        (not (Stash.is_stashed stash' id)))
    (Stash.stashed_ids stash)

let test_clone_hints_run_late () =
  let graph, _ = mlp_training ~batch:4 ~dim:8 ~classes:3 ~seed:8 in
  let stash = Stash.analyse graph in
  let rewritten = Rewrite.mirror graph ~mirror_ids:(Stash.stashed_ids stash) in
  (* every clone must be scheduled after the last forward node *)
  let sched = Graph.nodes rewritten in
  let last_fwd =
    List.fold_left
      (fun acc (i, n) -> if Node.region n = Node.Forward then i else acc)
      0
      (List.mapi (fun i n -> (i, n)) sched)
  in
  List.iteri
    (fun i n ->
      if Node.region n = Node.Backward && Node.op n = Op.Sigmoid then
        check_bool "clone in backward section" true (i > last_fwd))
    sched

(* Selection *)

let test_select_budget_zero () =
  let graph, _ = mlp_training ~batch:8 ~dim:32 ~classes:4 ~seed:9 in
  let sel = Select.echo dev graph ~overhead_budget:0.0 in
  check_bool "nothing selected without budget" true (Ids.Set.is_empty sel.Select.mirror_ids)

let test_select_budget_respected () =
  let graph, _ = mlp_training ~batch:8 ~dim:32 ~classes:4 ~seed:10 in
  let budget = 0.05 in
  let sel = Select.echo dev graph ~overhead_budget:budget in
  let t0 = Echo_gpusim.Costmodel.graph_time dev graph in
  check_bool "claimed cost within budget" true
    (sel.Select.claimed_cost_s <= (budget *. t0) +. 1e-12)

let test_select_only_recomputable_forward () =
  let graph, _ = mlp_training ~batch:8 ~dim:32 ~classes:4 ~seed:11 in
  let sel = Select.echo dev graph ~overhead_budget:0.5 in
  Ids.Set.iter
    (fun id ->
      let n = Graph.find graph id in
      check_bool "forward" true (Node.region n = Node.Forward);
      check_bool "recomputable" true (Op.is_recomputable (Node.op n)))
    sel.Select.mirror_ids

let test_select_claim_matches_measured_stash () =
  (* The estimator's claimed saving must equal the measured drop in stashed
     bytes after the rewrite. *)
  let graph, _ = mlp_training ~batch:16 ~dim:64 ~classes:10 ~seed:12 in
  let sel = Select.echo dev graph ~overhead_budget:0.2 in
  let before = (Memplan.plan graph).Memplan.stash_bytes in
  let rewritten = Rewrite.mirror graph ~mirror_ids:sel.Select.mirror_ids in
  let after = (Memplan.plan rewritten).Memplan.stash_bytes in
  check_int "claimed = measured" sel.Select.claimed_saving_bytes (before - after)

let test_select_negative_budget_raises () =
  let graph, _ = mlp_training ~batch:2 ~dim:4 ~classes:2 ~seed:13 in
  check_bool "raises" true
    (try
       ignore (Select.echo dev graph ~overhead_budget:(-0.1));
       false
     with Invalid_argument _ -> true)

let test_checkpoint_reduces_stash () =
  let graph, _ = mlp_training ~batch:16 ~dim:64 ~classes:10 ~seed:14 in
  let sel = Select.checkpoint_sqrt dev graph in
  let rewritten = Rewrite.mirror graph ~mirror_ids:sel.Select.mirror_ids in
  let before = (Memplan.plan graph).Memplan.stash_bytes in
  let after = (Memplan.plan rewritten).Memplan.stash_bytes in
  check_bool "stash shrinks" true (after < before)

let test_recompute_all_empties_stash () =
  let graph, _ = mlp_training ~batch:8 ~dim:16 ~classes:4 ~seed:15 in
  let sel = Select.recompute_all dev graph in
  let rewritten = Rewrite.mirror graph ~mirror_ids:sel.Select.mirror_ids in
  check_int "stash empty" 0 (Memplan.plan rewritten).Memplan.stash_bytes

let test_mirror_all_cheap_excludes_gemm () =
  let graph, _ = mlp_training ~batch:8 ~dim:16 ~classes:4 ~seed:16 in
  let sel = Select.mirror_all_cheap graph in
  Ids.Set.iter
    (fun id -> check_bool "cheap only" true (Op.is_cheap (Node.op (Graph.find graph id))))
    sel.Select.mirror_ids

let test_chain_span_fences () =
  (* A long recurrence of cheap ops: with a tight span cap the selection must
     leave periodic fences stashed. *)
  let x = Node.placeholder [| 64 |] in
  let rec unroll acc nodes k =
    if k = 0 then (acc, List.rev nodes)
    else begin
      let next = Node.sigmoid (Node.add acc x) in
      unroll next (next :: nodes) (k - 1)
    end
  in
  let final, states = unroll (Node.tanh_ x) [] 40 in
  (* backward reads every state *)
  let reads = List.map (fun s -> Node.sq ~region:Node.Backward s) states in
  let g = Graph.create (final :: reads) in
  let sel = Select.echo dev g ~overhead_budget:1.0 ~max_chain_span:8 in
  let rewritten = Rewrite.mirror g ~mirror_ids:sel.Select.mirror_ids in
  let remaining = (Memplan.plan rewritten).Memplan.stash_bytes in
  check_bool "some fences remain" true (remaining > 0);
  check_bool "most of the chain is mirrored" true
    (Ids.Set.cardinal sel.Select.mirror_ids > 20)

(* Pass *)

let budgeted name budget =
  Planner.instantiate ~knobs:[ ("budget", budget) ] name

let planner_list =
  [
    Planner.instantiate "stash-all";
    Planner.instantiate "mirror-all-cheap";
    Planner.instantiate "checkpoint-sqrt";
    budgeted "echo" 0.05;
    budgeted "echo" 0.3;
    budgeted "echo-cheap" 0.05;
    budgeted "echo-noshare" 0.05;
    budgeted "echo-notrans" 0.05;
    Planner.instantiate "recompute-all";
  ]

let test_pass_all_policies_preserve_semantics () =
  let graph, feeds = mlp_training ~batch:8 ~dim:32 ~classes:5 ~seed:17 in
  let baseline = Interp.eval graph ~feeds in
  List.iter
    (fun planner ->
      let rewritten, _ = Pass.run_instance ~device:dev planner graph in
      Graph.validate rewritten;
      let outputs = Interp.eval rewritten ~feeds in
      check_bool (Planner.label planner) true
        (List.for_all2 Tensor.equal baseline outputs))
    planner_list

let test_pass_echo_never_regresses () =
  let graph, _ = mlp_training ~batch:16 ~dim:64 ~classes:8 ~seed:18 in
  List.iter
    (fun budget ->
      let _, report = Pass.run_instance ~device:dev (budgeted "echo" budget) graph in
      check_bool "reduction >= 1" true (Pass.reduction report >= 1.0))
    [ 0.01; 0.05; 0.2; 0.5 ]

let test_pass_stash_all_identity () =
  let graph, _ = mlp_training ~batch:4 ~dim:8 ~classes:3 ~seed:19 in
  let rewritten, report =
    Pass.run_instance ~device:dev (Planner.instantiate "stash-all") graph
  in
  check_bool "same graph" true (rewritten == graph);
  check_int "no mirrors" 0 report.Pass.mirrored_nodes;
  Alcotest.(check (float 1e-9)) "no overhead" 0.0 (Pass.overhead report)

let test_pass_no_sharing_costs_more () =
  let graph, _ = mlp_training ~batch:8 ~dim:32 ~classes:5 ~seed:20 in
  let _, shared = Pass.run_instance ~device:dev (budgeted "echo-noshare" 0.1) graph in
  check_bool "clones >= mirrored (duplication)" true
    (shared.Pass.clone_nodes >= shared.Pass.mirrored_nodes)

let test_pass_flops_ratio () =
  let graph, _ = mlp_training ~batch:8 ~dim:32 ~classes:5 ~seed:21 in
  let rewritten, _ =
    Pass.run_instance ~device:dev (Planner.instantiate "recompute-all") graph
  in
  let ratio = Pass.recompute_flops_ratio rewritten ~original:graph in
  check_bool "positive extra flops" true (ratio > 0.0);
  check_bool "bounded by forward" true (ratio < 1.0)

let test_policy_names_unique () =
  List.iter
    (fun (what, planners) ->
      let labels = List.map Planner.label planners in
      check_int what (List.length labels)
        (List.length (List.sort_uniq compare labels)))
    [ ("default instances", Pass.default_instances); ("test list", planner_list) ]

(* Property: mirror rewrite preserves semantics for random mirror subsets of
   random training graphs. *)
let prop_random_mirror_semantics =
  QCheck.Test.make ~name:"random mirror sets preserve semantics" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let graph, feeds = mlp_training ~batch:3 ~dim:6 ~classes:3 ~seed in
      let stash = Stash.analyse graph in
      let rng = Rng.create (seed + 77) in
      let subset =
        List.fold_left
          (fun acc n ->
            if Rng.float rng < 0.5 && Op.is_recomputable (Node.op n) then
              Ids.Set.add (Node.id n) acc
            else acc)
          Ids.Set.empty (Stash.stashed_nodes stash)
      in
      let share = Rng.float rng < 0.5 in
      let rewritten = Rewrite.mirror ~share graph ~mirror_ids:subset in
      Graph.validate rewritten;
      outputs_equal graph rewritten ~feeds)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "stash",
      [ t "analysis" test_stash_analysis; t "availability" test_stash_availability ] );
    ( "rewrite",
      [
        t "preserves semantics" test_mirror_preserves_semantics;
        t "empty set is identity" test_mirror_empty_is_identity_semantics;
        t "rejects backward node" test_mirror_rejects_backward_node;
        t "rejects variable" test_mirror_rejects_variable;
        t "rejects foreign id" test_mirror_rejects_foreign_id;
        t "lazy clones" test_mirror_lazy_clones;
        t "shared clone once" test_mirror_shared_clone_once;
        t "no-sharing duplicates" test_mirror_no_sharing_duplicates;
        t "frees stash" test_mirror_frees_stash;
        t "clone hints run late" test_clone_hints_run_late;
        QCheck_alcotest.to_alcotest prop_random_mirror_semantics;
      ] );
    ( "select",
      [
        t "budget zero" test_select_budget_zero;
        t "budget respected" test_select_budget_respected;
        t "only recomputable forward" test_select_only_recomputable_forward;
        t "claim matches measured" test_select_claim_matches_measured_stash;
        t "negative budget" test_select_negative_budget_raises;
        t "checkpoint reduces stash" test_checkpoint_reduces_stash;
        t "recompute-all empties stash" test_recompute_all_empties_stash;
        t "mirror-all-cheap excludes gemm" test_mirror_all_cheap_excludes_gemm;
        t "chain span fences" test_chain_span_fences;
      ] );
    ( "pass",
      [
        t "all policies preserve semantics" test_pass_all_policies_preserve_semantics;
        t "echo never regresses" test_pass_echo_never_regresses;
        t "stash-all identity" test_pass_stash_all_identity;
        t "no-sharing costs more" test_pass_no_sharing_costs_more;
        t "flops ratio" test_pass_flops_ratio;
        t "policy names unique" test_policy_names_unique;
      ] );
  ]
