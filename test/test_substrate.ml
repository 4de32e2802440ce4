(* The executor-validation substrate: sanitized execution of rewritten
   graphs, static offset assignment, and graph serialization. *)

open Echo_tensor
open Echo_ir
open Echo_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dev = Echo_gpusim.Device.titan_xp

let lm_setup () =
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
  let rng = Rng.create 77 in
  let ids n = Tensor.init (Node.shape n) (fun _ -> float_of_int (Rng.int rng 60)) in
  let feeds =
    (lm.Language_model.token_input, ids lm.Language_model.token_input)
    :: (lm.Language_model.label_input, ids lm.Language_model.label_input)
    :: Params.bindings lm.Language_model.model.Model.params
  in
  ((Model.training lm.Language_model.model).Echo_autodiff.Grad.graph, feeds)

(* Sanitized execution: every planner's rewrite, compiled with the
   shadow-memory sanitizer, reads no buffer past its planned lifetime and
   computes the interpreter's bits. *)

let test_planners_run_sanitized () =
  let graph, feeds = lm_setup () in
  let reference = Interp.eval graph ~feeds in
  List.iter
    (fun planner ->
      let label = Echo_core.Planner.label planner in
      let rewritten, _ = Echo_core.Pass.run_instance ~device:dev planner graph in
      let exe =
        Echo_compiler.Executor.compile ~sanitize:Echo_analysis.Sanitize.Cells
          rewritten
      in
      let outputs = Echo_compiler.Executor.eval exe ~feeds in
      check_bool (label ^ " bit-identical to interp") true
        (List.for_all2 Tensor.equal reference outputs);
      match Echo_compiler.Executor.sanitize_report exe with
      | Some report ->
        check_int (label ^ " sanitizer clean") 0
          (Echo_diag.Report.error_count report)
      | None -> Alcotest.fail "compiled without the sanitizer")
    [
      Echo_core.Planner.instantiate "stash-all";
      Echo_core.Planner.instantiate "checkpoint-sqrt";
      Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.3) ] "echo";
      Echo_core.Planner.instantiate "recompute-all";
    ]

(* The un-rewritten graph, fused and unfused, under the sanitizer. *)
let test_sanitized_matches_interp () =
  let graph, feeds = lm_setup () in
  let reference = Interp.eval graph ~feeds in
  List.iter
    (fun (what, fusion) ->
      let exe =
        Echo_compiler.Executor.compile
          ~plan:(Memplan.plan ?fusion graph)
          ~sanitize:Echo_analysis.Sanitize.Cells graph
      in
      let outputs = Echo_compiler.Executor.eval exe ~feeds in
      check_bool (what ^ " bit-identical to interp") true
        (List.for_all2 Tensor.equal reference outputs))
    [ ("unfused", None); ("fused", Some (Fuse.analyse graph)) ]

(* Peak number of simultaneously live transient values over the schedule:
   the values a recycling executor must retain at once. *)
let max_live_values graph =
  let live = Liveness.analyse graph in
  let intervals = Liveness.intervals live in
  let peak = ref 0 in
  for step = 0 to Liveness.step_count live - 1 do
    let n =
      List.length
        (List.filter
           (fun (i : Liveness.interval) -> i.def_step <= step && step <= i.last_step)
           intervals)
    in
    peak := max !peak n
  done;
  !peak

let test_chain_constant_values () =
  let x = Node.placeholder [| 4 |] in
  let rec extend acc k = if k = 0 then acc else extend (Node.sq acc) (k - 1) in
  let out = extend (Node.neg x) 20 in
  let g = Graph.create [ out ] in
  let feeds = [ (x, Tensor.ones [| 4 |]) ] in
  check_bool "chain runs in O(1) values" true (max_live_values g <= 2);
  let exe =
    Echo_compiler.Executor.compile ~sanitize:Echo_analysis.Sanitize.Cells g
  in
  let offsets =
    List.sort_uniq compare
      (List.filter
         (fun off -> off >= 0)
         (Array.to_list
            (Echo_compiler.Executor.plan exe).Memplan.offset_of_slot))
  in
  check_bool "chain binds at most two ranges" true (List.length offsets <= 2);
  check_bool "chain bit-identical to interp" true
    (List.for_all2 Tensor.equal (Interp.eval g ~feeds)
       (Echo_compiler.Executor.eval exe ~feeds))

let test_echo_retained_values_bounded () =
  let graph, _ = lm_setup () in
  let rewritten, _ =
    Echo_core.Pass.run_instance ~device:dev
      (Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.3) ] "echo")
      graph
  in
  let p0 = max_live_values graph and p1 = max_live_values rewritten in
  (* a value count is a crude proxy for bytes, but recomputation should not
     blow up the number of simultaneously retained values *)
  check_bool "retained values comparable" true (p1 <= p0 * 2)

(* Static offset assignment: the offsets of Memplan's best-fit walk, here
   without in-place transfers so every value gets a range of its own, each
   layout proven by Echo-verify's range checker. *)

let assign g =
  let plan = Memplan.plan ~inplace:false g in
  check_int "range check clean" 0
    (Echo_diag.Report.error_count (Echo_analysis.Verify.check_ranges g plan));
  plan

let test_assign_chain_two_buffers () =
  let x = Node.placeholder [| 256 |] in
  let rec extend acc k = if k = 0 then acc else extend (Node.sq acc) (k - 1) in
  let out = extend (Node.neg x) 10 in
  let plan = assign (Graph.create [ out ]) in
  check_int "two slots' worth of arena" 2048 plan.Memplan.slab_bytes

let test_assign_diamond () =
  let x = Node.placeholder [| 256 |] in
  let a = Node.neg x and b = Node.sq x in
  let c = Node.add a b in
  let plan = assign (Graph.create [ c ]) in
  check_int "three concurrent buffers" 3072 plan.Memplan.slab_bytes

let test_assign_validates_models () =
  let graph, _ = lm_setup () in
  let r = assign graph in
  check_bool "static plan >= live peak" true
    (r.Memplan.arena_bytes >= r.Memplan.live_peak_bytes);
  check_bool "static plan <= no-reuse arena" true
    (r.Memplan.arena_bytes
    <= (Memplan.plan ~reuse:false ~inplace:false graph).Memplan.arena_bytes)

let test_assign_echo_graph_smaller () =
  let graph, _ = lm_setup () in
  let rewritten, _ =
    Echo_core.Pass.run_instance ~device:dev
      (Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.3) ] "echo")
      graph
  in
  let p0 = assign graph and p1 = assign rewritten in
  check_bool "echo shrinks the static arena" true
    (p1.Memplan.slab_bytes <= p0.Memplan.slab_bytes)

let test_assign_hole_merging () =
  (* Two buffers freed back to back must merge into one hole a larger buffer
     can take: x -> a(256), b(256); both die at c = concat; then d(512)
     should fit into the merged hole. *)
  let x = Node.placeholder [| 64 |] in
  let a = Node.neg x and b = Node.sq x in
  let c = Node.concat ~axis:0 [ a; b ] in
  let d = Node.sq c in
  let e = Node.reduce_sum ~axis:0 ~keepdims:false d in
  let plan = assign (Graph.create [ e ]) in
  (* a(256) + b(256) + c(512) live at step c; then d reuses a+b's merged
     hole: arena stays at 1024 + e *)
  check_bool "merged reuse keeps arena tight" true (plan.Memplan.slab_bytes <= 1028)

(* Serialization *)

let roundtrip graph = Serial.of_string (Serial.to_string graph)

let test_serial_roundtrip_structure () =
  let graph, _ = lm_setup () in
  let graph' = roundtrip graph in
  Graph.validate graph';
  check_int "node count" (Graph.node_count graph) (Graph.node_count graph');
  let ops g = List.map (fun n -> Op.to_string (Node.op n)) (Graph.nodes g) in
  Alcotest.(check (list string)) "op sequence identical" (ops graph) (ops graph')

let test_serial_roundtrip_semantics () =
  let graph, feeds = lm_setup () in
  let graph' = roundtrip graph in
  (* re-bind feeds to the reloaded placeholder/variable nodes by name *)
  let by_name =
    List.filter_map
      (fun n ->
        match Node.op n with
        | Op.Placeholder | Op.Variable -> Some (Node.name n, n)
        | _ -> None)
      (Graph.nodes graph')
  in
  let feeds' =
    List.map (fun (n, v) -> (List.assoc (Node.name n) by_name, v)) feeds
  in
  let a = Interp.eval graph ~feeds in
  let b = Interp.eval graph' ~feeds:feeds' in
  check_bool "bit-identical after reload" true (List.for_all2 Tensor.equal a b)

let test_serial_roundtrip_footprint () =
  let graph, _ = lm_setup () in
  let graph' = roundtrip graph in
  let r = Memplan.plan graph and r' = Memplan.plan graph' in
  check_int "live peak preserved" r.Memplan.live_peak_bytes r'.Memplan.live_peak_bytes;
  check_int "arena preserved" r.Memplan.arena_bytes r'.Memplan.arena_bytes

let test_serial_roundtrip_rewritten () =
  let graph, feeds = lm_setup () in
  let rewritten, _ =
    Echo_core.Pass.run_instance ~device:dev
      (Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.3) ] "echo")
      graph
  in
  let reloaded = roundtrip rewritten in
  let by_name =
    List.filter_map
      (fun n ->
        match Node.op n with
        | Op.Placeholder | Op.Variable -> Some (Node.name n, n)
        | _ -> None)
      (Graph.nodes reloaded)
  in
  let feeds' = List.map (fun (n, v) -> (List.assoc (Node.name n) by_name, v)) feeds in
  check_bool "rewritten graph survives reload" true
    (List.for_all2 Tensor.equal (Interp.eval rewritten ~feeds)
       (Interp.eval reloaded ~feeds:feeds'))

let test_serial_escaped_names () =
  let x = Node.placeholder ~name:"weird name 100%" [| 2 |] in
  let g = Graph.create [ Node.neg x ] in
  let g' = roundtrip g in
  check_bool "name survives escaping" true
    (List.exists (fun n -> Node.name n = "weird name 100%") (Graph.nodes g'))

let test_serial_rejects_garbage () =
  let bad text =
    try
      ignore (Serial.of_string text);
      false
    with Serial.Parse_error _ -> true
  in
  check_bool "empty" true (bad "");
  check_bool "bad header" true (bad "not-a-graph\n");
  check_bool "missing outputs" true (bad "echo-graph v1\n");
  check_bool "unknown op" true
    (bad "echo-graph v1\nnode 0 x fwd 0x0p+0 2 frobnicate ; \noutputs 0\n");
  check_bool "dangling input" true
    (bad "echo-graph v1\nnode 1 y fwd 0x0p+0 2 neg ; 0\noutputs 1\n")

let test_serial_file_roundtrip () =
  let x = Node.placeholder [| 3 |] in
  let g = Graph.create [ Node.sigmoid x ] in
  let path = Filename.temp_file "echo_graph" ".txt" in
  Serial.to_file g path;
  let g' = Serial.of_file path in
  Sys.remove path;
  check_int "nodes" 2 (Graph.node_count g')

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "sanitized_exec",
      [
        t "matches interp" test_sanitized_matches_interp;
        t "planners run clean" test_planners_run_sanitized;
        t "chain runs in O(1) values" test_chain_constant_values;
        t "echo retained values bounded" test_echo_retained_values_bounded;
      ] );
    ( "assign",
      [
        t "chain two buffers" test_assign_chain_two_buffers;
        t "diamond" test_assign_diamond;
        t "validates on models" test_assign_validates_models;
        t "echo shrinks arena" test_assign_echo_graph_smaller;
        t "hole merging" test_assign_hole_merging;
      ] );
    ( "serial",
      [
        t "roundtrip structure" test_serial_roundtrip_structure;
        t "roundtrip semantics" test_serial_roundtrip_semantics;
        t "roundtrip footprint" test_serial_roundtrip_footprint;
        t "roundtrip rewritten graph" test_serial_roundtrip_rewritten;
        t "escaped names" test_serial_escaped_names;
        t "rejects garbage" test_serial_rejects_garbage;
        t "file roundtrip" test_serial_file_roundtrip;
      ] );
  ]
