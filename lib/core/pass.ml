open Echo_ir
open Echo_gpusim
open Echo_exec

let default_instances =
  let echo b = Planner.instantiate ~knobs:[ ("budget", b) ] "echo" in
  [
    Planner.instantiate "stash-all";
    Planner.instantiate "mirror-all-cheap";
    Planner.instantiate "checkpoint-sqrt";
    echo 0.03;
    echo 0.30;
    Planner.instantiate "recompute-all";
  ]

type report = {
  planner : string;
  mirrored_nodes : int;
  clone_nodes : int;
  claimed_saving_bytes : int;
  claimed_cost_s : float;
  baseline_mem : Memplan.report;
  optimised_mem : Memplan.report;
  baseline_time_s : float;
  optimised_time_s : float;
}

let run_selected ~share graph selection =
  if Ids.Set.is_empty selection.Select.mirror_ids then graph
  else Rewrite.mirror ~share graph ~mirror_ids:selection.Select.mirror_ids

let run_instance ~device instance graph =
  let baseline_mem = Memplan.plan graph in
  let baseline_time_s = Costmodel.graph_time device graph in
  let { Planner.selection; share; rewritten } =
    Planner.plan instance ~device ~baseline:baseline_mem graph
  in
  (* A planner that measured its own rewrite (the echo ladder) hands it
     over; an empty selection hands back the input graph itself, whose
     plan and simulated time are the baseline's. *)
  let optimised, optimised_mem, optimised_time_s =
    match rewritten with
    | Some (g, mem) -> (g, mem, Costmodel.graph_time device g)
    | None ->
      let g = run_selected ~share graph selection in
      if g == graph then (graph, baseline_mem, baseline_time_s)
      else (g, Memplan.plan g, Costmodel.graph_time device g)
  in
  let report =
    {
      planner = Planner.label instance;
      mirrored_nodes = Ids.Set.cardinal selection.Select.mirror_ids;
      clone_nodes = Rewrite.clone_count optimised;
      claimed_saving_bytes = selection.Select.claimed_saving_bytes;
      claimed_cost_s = selection.Select.claimed_cost_s;
      baseline_mem;
      optimised_mem;
      baseline_time_s;
      optimised_time_s;
    }
  in
  (optimised, report)

let reduction r =
  float_of_int r.baseline_mem.Memplan.live_peak_bytes
  /. float_of_int r.optimised_mem.Memplan.live_peak_bytes

let overhead r = (r.optimised_time_s -. r.baseline_time_s) /. r.baseline_time_s

let graph_flops graph =
  List.fold_left (fun acc n -> acc +. Costmodel.node_flops n) 0.0 (Graph.nodes graph)

let recompute_flops_ratio rewritten ~original =
  let f0 = graph_flops original in
  (graph_flops rewritten -. f0) /. f0

let pp_report fmt r =
  Format.fprintf fmt
    "%-18s mirrored=%-5d clones=%-5d footprint %s -> %s (%.2fx) time %.2f ms -> \
     %.2f ms (%+.1f%%)"
    r.planner r.mirrored_nodes r.clone_nodes
    (Footprint.human r.baseline_mem.Memplan.live_peak_bytes)
    (Footprint.human r.optimised_mem.Memplan.live_peak_bytes)
    (reduction r)
    (1000.0 *. r.baseline_time_s)
    (1000.0 *. r.optimised_time_s)
    (100.0 *. overhead r)
