open Echo_ir
open Echo_exec
open Echo_gpusim

type outcome = {
  planner : Planner.instance;
  graph : Echo_ir.Graph.t;
  report : Pass.report;
}

let escalation = [ 0.01; 0.03; 0.05; 0.10; 0.20; 0.30; 0.50; 1.0 ]

let run_one ~device planner graph =
  let rewritten, report = Pass.run_instance ~device planner graph in
  { planner; graph = rewritten; report }

let label o = Planner.label o.planner
let echo_rung b = Planner.instantiate ~knobs:[ ("budget", b) ] "echo"

(* Cheapest-overhead-first. The registry's segment planners slot in between
   the Echo rungs and recompute-all: √n checkpointing recomputes each
   segment once from a count-balanced frontier, dp-bptt's byte-balanced
   segments trade a smaller frontier for more recomputation, and
   recompute-all is the overhead ceiling — test_planner's monotonicity
   test measures the actual simulated overhead of every rung and holds
   this tail order honest. *)
let fit_ladder =
  Planner.instantiate "stash-all"
  :: List.map echo_rung escalation
  @ [
      Planner.instantiate "checkpoint-sqrt";
      Planner.instantiate "dp-bptt";
      Planner.instantiate "recompute-all";
    ]

(* The arena of [outcome]'s graph compiled under [fusion] (a plan of that
   graph), or unfused. *)
let arena_under ?fusion outcome =
  match fusion with
  | Some f -> (Memplan.plan ~fusion:f outcome.graph).Memplan.arena_bytes
  | None -> outcome.report.Pass.optimised_mem.Memplan.arena_bytes

let fit_footprint ?fuse outcome =
  let fuse =
    match fuse with Some f -> f | None -> Echo_ir.Fuse.env_enabled ()
  in
  if fuse then arena_under ~fusion:(Echo_ir.Fuse.analyse outcome.graph) outcome
  else arena_under outcome

(* Fitting is judged on [arena_bytes] — the exact footprint of the compiled
   slot executor ([Executor.footprint_bytes]) — so a plan accepted under a
   budget is guaranteed to also compile under that budget. [fuse] must
   match the fusion setting of that later compile: the fused planner skips
   group interiors but extends external lifetimes, so the two arenas
   differ in both directions. *)
let fit_memory ~device ?fuse graph ~budget_bytes =
  let rec escalate = function
    | [] -> None
    | planner :: rest ->
      let outcome = run_one ~device planner graph in
      if fit_footprint ?fuse outcome <= budget_bytes then Some outcome
      else escalate rest
  in
  escalate fit_ladder

(* {1 Host roofline}

   The simulator prices the GPU the paper targets; [fit_exec] prices the
   machine the compiled executor runs on, with a model structured like the
   multicore runtime in [Echo_tensor.Parallel] (its rules are documented
   on [fit_exec] in the interface). A fused group is gated on its merged
   work, the decision [Tensor.Into.fused] takes at run time. *)

let min_fanout_work =
  Echo_tensor.Parallel.(min_fanout_work sequential)

let fanout_overhead_s = 30e-6
let scalar_rate = 1e9 (* weighted scalar ops/s of one domain *)
let mem_rate = 8e9 (* bytes/s of the shared memory system *)
let dispatch_s = 0.2e-6 (* per-instruction dispatch *)
let blocked_speedup = 2.0

let kernel_time ~domains ~work ~bytes ~speedup =
  let fans = domains > 1 && work >= float_of_int min_fanout_work in
  let fan = if fans then float_of_int domains else 1.0 in
  let overhead = if fans then fanout_overhead_s else 0.0 in
  dispatch_s +. overhead
  +. Float.max (work /. (scalar_rate *. speedup *. fan)) (bytes /. mem_rate)

let host_node_time ~domains node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> 0.0
  | op ->
    let speedup =
      match op with Op.Matmul _ -> blocked_speedup | _ -> 1.0
    in
    kernel_time ~domains ~work:(Costmodel.node_flops node)
      ~bytes:(Costmodel.node_bytes node) ~speedup

let host_group_time ~domains g =
  let work, bytes = Costmodel.group_work g in
  kernel_time ~domains ~work ~bytes ~speedup:1.0

(* Predicted host wall-clock of one pass at an effective fan-out of
   [domains], fused under [fusion] (a plan of [graph]) or every node
   separately. *)
let host_graph_time ~domains ?fusion graph =
  match fusion with
  | Some plan ->
    Costmodel.fused_time ~plan ~node:(host_node_time ~domains)
      ~group:(host_group_time ~domains) graph
  | None ->
    List.fold_left
      (fun acc node -> acc +. host_node_time ~domains node)
      0.0 (Graph.nodes graph)

(* {1 Joint (fuse, domains) search}

   [fit_memory] fixes the execution knobs and escalates only the
   recomputation plan; this search instead walks the same ladder and, at
   every rung that fits the budget, prices the full execution-knob grid
   with the host roofline above. The result is the fastest *combination*,
   not the best value of each knob independently: a rung whose fused arena
   fits may lose to an earlier rung that only fits unfused, and a domain
   count that helps the unfused schedule may hurt the fused one.

   The grid is priced at the *effective* fan-out (capped at the hardware,
   exactly as the runtime will cap it), so on a small machine every domain
   candidate predicts the same time and the smallest wins the tie — the
   returned combo never asks for parallelism the machine cannot give. *)

type exec_combo = { fuse : bool; domains : int }

type exec_choice = {
  chosen : outcome;
  combo : exec_combo;
  predicted_s : float;
  arena_bytes : int;
}

let domain_candidates = [ 1; 2; 4 ]

let combo_runtime c = Echo_tensor.Parallel.create ~domains:c.domains ()

let fit_exec ~device graph ~budget_bytes =
  let hw = Echo_tensor.Parallel.hardware_parallelism () in
  let consider best outcome ?fusion ~arena () =
    let fuse = Option.is_some fusion in
    List.fold_left
      (fun best domains ->
        let predicted_s =
          host_graph_time ~domains:(min domains hw) ?fusion outcome.graph
        in
        match best with
        | Some b when b.predicted_s <= predicted_s -> best
        | Some _ | None ->
          Some
            {
              chosen = outcome;
              combo = { fuse; domains };
              predicted_s;
              arena_bytes = arena;
            })
      best domain_candidates
  in
  (* One fusion analysis per rung: the fused arena and every fused
     domain candidate are priced under the same plan. *)
  List.fold_left
    (fun best planner ->
      let outcome = run_one ~device planner graph in
      let plan = Echo_ir.Fuse.analyse outcome.graph in
      List.fold_left
        (fun best fusion ->
          let arena = arena_under ?fusion outcome in
          if arena > budget_bytes then best
          else consider best outcome ?fusion ~arena ())
        best [ None; Some plan ])
    None fit_ladder
