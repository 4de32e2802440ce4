open Echo_tensor
open Echo_ir
open Echo_gpusim

type stats = { groups : int; fused_nodes : int; launches_saved : int }

(* The grouping itself lives in [Echo_ir.Fuse] — one analysis shared with
   the memory planner and the compiled executor, so these statistics
   describe exactly what the fused backend runs. *)
let analyse graph =
  let p = Fuse.analyse graph in
  let fused_nodes =
    List.fold_left (fun a g -> a + List.length g.Fuse.members) 0 (Fuse.groups p)
  in
  {
    groups = Fuse.group_count p;
    fused_nodes;
    launches_saved = Fuse.interior_count p;
  }

(* A fused group costs one launch and one roofline pass: compute is the sum
   of the members' flops (every scalar op still executes), but bytes are
   counted once — the external inputs are read once and only the root is
   written, which is precisely what [Tensor.Into.fused] does. *)
let group_time device g =
  let flops =
    List.fold_left (fun a m -> a +. Costmodel.node_flops m) 0.0 g.Fuse.members
  in
  let numels =
    List.fold_left
      (fun a e -> a + Shape.numel (Node.shape e))
      (Shape.numel (Node.shape g.Fuse.root))
      g.Fuse.externals
  in
  let bytes = 4.0 *. float_of_int numels in
  device.Device.launch_overhead_s
  +. Float.max (flops /. device.Device.peak_flops) (bytes /. device.Device.bandwidth)

let fused_graph_time device graph =
  let p = Fuse.analyse graph in
  List.fold_left
    (fun acc node ->
      if Fuse.is_interior p (Node.id node) then acc
      else
        match Fuse.group_of_root p (Node.id node) with
        | Some g -> acc +. group_time device g
        | None -> acc +. Costmodel.node_time device node)
    0.0 (Graph.nodes graph)

(* {1 Host (Domain-pool) cost model}

   The simulator above prices the GPU the paper targets; this second model
   prices the machine the compiled executor actually runs on — the
   multicore kernel runtime in [Echo_tensor.Parallel] — and is
   deliberately structured like that runtime:

   - a kernel fans out only when its total scalar work clears the
     runtime's [min_fanout_work] gate and more than one domain is
     effectively available; fanning out costs a fixed wakeup/join latency
     ([fanout_overhead_s]);
   - compute scales with the effective fan-out, but the memory term does
     not (the domains share one memory bus);
   - every matmul runs the register-blocked SIMD kernel, modelled as a
     flat [blocked_speedup] on its flops.

   Because the model applies the same gate the runtime applies, a fused
   chain is priced with the fan-out decision the fused kernel will
   actually take — which is exactly what the old purely-GPU model got
   wrong when a fused chain crossed the gate its members stayed under. *)

type exec_config = {
  domains : int;  (** effective fan-out, already hardware-capped *)
  min_fanout_work : int;
  fanout_overhead_s : float;
  scalar_rate : float;  (** weighted scalar ops/s of one domain *)
  mem_rate : float;  (** bytes/s of the shared memory system *)
  dispatch_s : float;  (** per-instruction interpreter overhead *)
  blocked_speedup : float;
}

let host_config =
  {
    domains = 1;
    min_fanout_work = Parallel.min_fanout_work Parallel.sequential;
    fanout_overhead_s = 30e-6;
    scalar_rate = 1e9;
    mem_rate = 8e9;
    dispatch_s = 0.2e-6;
    blocked_speedup = 2.0;
  }

let of_runtime rt =
  {
    host_config with
    domains = Parallel.effective_fanout rt;
    min_fanout_work = Parallel.min_fanout_work rt;
  }

(* One kernel launch under [cfg]: [work] weighted scalar ops, [bytes] of
   traffic, [speedup] on the compute term (the matmul kernel). Mirrors
   [Parallel.parallel_for]'s gate exactly. *)
let kernel_time cfg ~work ~bytes ~speedup =
  let fans = cfg.domains > 1 && work >= float_of_int cfg.min_fanout_work in
  let fan = if fans then float_of_int cfg.domains else 1.0 in
  let overhead = if fans then cfg.fanout_overhead_s else 0.0 in
  cfg.dispatch_s +. overhead
  +. Float.max (work /. (cfg.scalar_rate *. speedup *. fan)) (bytes /. cfg.mem_rate)

let node_time cfg node =
  match Node.op node with
  | Op.Placeholder | Op.Variable -> 0.0
  | op ->
    let work = Costmodel.node_flops node in
    let bytes = Costmodel.node_bytes node in
    let speedup =
      match op with Op.Matmul _ -> cfg.blocked_speedup | _ -> 1.0
    in
    kernel_time cfg ~work ~bytes ~speedup

(* One dispatch, compute summed over the members, bytes counted once over
   the externals and the root — the same accounting as the GPU
   [group_time], priced on the host. *)
let host_group_time cfg g =
  let work =
    List.fold_left (fun a m -> a +. Costmodel.node_flops m) 0.0 g.Fuse.members
  in
  let numels =
    List.fold_left
      (fun a e -> a + Shape.numel (Node.shape e))
      (Shape.numel (Node.shape g.Fuse.root))
      g.Fuse.externals
  in
  kernel_time cfg ~work ~bytes:(4.0 *. float_of_int numels) ~speedup:1.0

let unfused_group_time cfg g =
  List.fold_left (fun a m -> a +. node_time cfg m) 0.0 g.Fuse.members

(* The valve [Fuse.analyse ~keep] plugs into. Fusing never adds scalar
   work, so a group only loses when the merged kernel's fan-out decision
   costs more than the dispatches and interior traffic it saves — e.g. a
   chain of tiny members that each stayed under the gate but together
   cross it on a machine where the fan-out overhead dwarfs the compute. *)
let profitable cfg g = host_group_time cfg g <= unfused_group_time cfg g

let host_graph_time cfg ?(fuse = true) graph =
  if not fuse then
    List.fold_left
      (fun acc node -> acc +. node_time cfg node)
      0.0 (Graph.nodes graph)
  else begin
    (* Price the plan the compiler would actually emit under this config:
       unprofitable groups are unfused both here and there. *)
    let p = Fuse.analyse ~keep:(profitable cfg) graph in
    List.fold_left
      (fun acc node ->
        if Fuse.is_interior p (Node.id node) then acc
        else
          match Fuse.group_of_root p (Node.id node) with
          | Some g -> acc +. host_group_time cfg g
          | None -> acc +. node_time cfg node)
      0.0 (Graph.nodes graph)
  end
