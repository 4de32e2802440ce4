open Echo_ir

type source = {
  name : string;
  loss : Node.t;
  params : Node.t list;
  placeholders : Node.t list;
}

let source ?(name = "anonymous") ?(placeholders = []) ~loss ~params () =
  { name; loss; params; placeholders }

let of_model (m : Echo_models.Model.t) =
  {
    name = m.Echo_models.Model.name;
    loss = m.Echo_models.Model.loss;
    params = Echo_models.Params.variables m.Echo_models.Model.params;
    placeholders = m.Echo_models.Model.placeholders;
  }

let forward_graph s = Graph.create [ s.loss ]

type training = { source : source; autodiff : Echo_autodiff.Grad.training }

let differentiate s =
  {
    source = s;
    autodiff = Echo_autodiff.Grad.differentiate ~loss:s.loss ~wrt:s.params;
  }

type optimized = {
  training : training;
  graph : Graph.t;
  opt_stats : Echo_opt.Pipeline.stats option;
}

let optimize ?(enabled = true) (t : training) =
  if enabled then begin
    let graph, stats = Echo_opt.Pipeline.run t.autodiff.Echo_autodiff.Grad.graph in
    { training = t; graph; opt_stats = Some stats }
  end
  else
    { training = t; graph = t.autodiff.Echo_autodiff.Grad.graph; opt_stats = None }

let of_training_graph ?(name = "pre-built") graph =
  let outputs = Graph.outputs graph in
  let loss =
    match outputs with
    | loss :: _ -> loss
    | [] -> invalid_arg "Pipeline.of_training_graph: graph has no outputs"
  in
  let src = { name; loss; params = []; placeholders = [] } in
  { source = src; autodiff = { Echo_autodiff.Grad.loss; grads = []; graph } }

type rewritten = {
  optimized : optimized;
  graph : Graph.t;
  planner : Echo_core.Planner.instance;
  report : Echo_core.Pass.report;
}

let rewrite ?(device = Echo_gpusim.Device.titan_xp)
    ?(planner = Echo_core.Planner.instantiate "stash-all") (opt : optimized) =
  let graph, report = Echo_core.Pass.run_instance ~device planner opt.graph in
  { optimized = opt; graph; planner; report }

type planned = {
  rewritten : rewritten;
  graph : Graph.t;
  memplan : Echo_exec.Memplan.report;
}

let plan (rw : rewritten) =
  {
    rewritten = rw;
    graph = rw.graph;
    (* The rewrite stage already measured the rewritten graph; reuse it
       rather than planning a third time. *)
    memplan = rw.report.Echo_core.Pass.optimised_mem;
  }

type fused = {
  planned : planned;
  graph : Graph.t;
  fusion : Fuse.plan option;
  fused_memplan : Echo_exec.Memplan.report;
}

let fuse ?enabled ?runtime:_ (pl : planned) =
  let enabled =
    match enabled with Some e -> e | None -> Fuse.env_enabled ()
  in
  if enabled then begin
    let f = Fuse.analyse pl.graph in
    {
      planned = pl;
      graph = pl.graph;
      fusion = Some f;
      fused_memplan = Echo_exec.Memplan.plan ~fusion:f pl.graph;
    }
  end
  else
    (* Stage disabled: the fused plan is the unfused plan. *)
    { planned = pl; graph = pl.graph; fusion = None; fused_memplan = pl.memplan }

(* Alias so shorthands can take a [?fuse] flag without shadowing the stage. *)
let fuse_stage = fuse

type executable = { fused : fused; executor : Executor.t }

(* The verification layer: every stage re-proven by the independent
   checkers of Echo_analysis.Verify. Later stages verify everything the
   earlier ones do plus their own artifact: from the planned stage on, the
   offsets of the memory plan the stage carries. *)
type stage =
  | Source of source
  | Training of training
  | Optimized of optimized
  | Rewritten of rewritten
  | Planned of planned
  | Fused of fused
  | Executable of executable

let verify stage =
  match stage with
  | Source s -> Echo_analysis.Verify.lint (forward_graph s)
  | Training t -> Echo_analysis.Verify.lint t.autodiff.Echo_autodiff.Grad.graph
  | Optimized o -> Echo_analysis.Verify.lint o.graph
  | Rewritten r -> Echo_analysis.Verify.lint r.graph
  | Planned pl ->
    Echo_analysis.Verify.lint
      ~offsets:(Echo_exec.Assign.of_plan pl.graph pl.memplan)
      pl.graph
  | Fused f ->
    Echo_analysis.Verify.lint ?fusion:f.fusion
      ~offsets:(Echo_exec.Assign.of_plan f.graph f.fused_memplan)
      f.graph
  | Executable e ->
    let f = e.fused in
    Echo_analysis.Verify.lint ?fusion:f.fusion
      ~offsets:(Executor.offsets e.executor) f.graph

(* The race checker over a compiled executable: every artifact the
   executor actually carries — its runtime, and its plan's fusion groups,
   slab offsets and the liveness intervals it frees against — handed to
   [Race.check]. *)
let race_verify e =
  let executor = e.executor in
  let graph = Executor.graph executor in
  let plan = Executor.plan executor in
  Echo_analysis.Race.check ?fusion:plan.Echo_exec.Memplan.fusion
    ~intervals:(Echo_exec.Memplan.intervals graph plan)
    ~offsets:(Executor.offsets executor)
    ~runtime:(Executor.runtime executor) graph

let compile ?budget_bytes ?runtime ?sanitize (f : fused) =
  let e =
    {
      fused = f;
      executor =
        Executor.compile ?budget_bytes ?runtime ~plan:f.fused_memplan
          ?sanitize f.graph;
    }
  in
  (* ECHO_VERIFY=1: every compile self-certifies; error findings abort.
     The race checker runs alongside the classic verifiers, so every
     verified compile is also proven partition-disjoint. *)
  if Echo_analysis.Verify.env_enabled () then begin
    Echo_analysis.Verify.check_exn (verify (Executable e));
    Echo_analysis.Verify.check_exn (race_verify e)
  end;
  e

let executor e = e.executor
let planned_of e = e.fused.planned

(* The content-addressed compile cache hook. The pipeline stays policy-free
   about storage: a cache is just one function that either serves [key]
   from its table or runs [compile] and remembers the result. A served hit
   skips the entire pipeline — rewrite, planning, fusion, executor lowering
   AND the ECHO_VERIFY self-certification, whose verdict is a pure function
   of the artifact and was already rendered when the entry was built. *)
type cache = {
  fetch : key:string -> compile:(unit -> executable) -> executable;
}

(* Everything that decides what [compile_graph] produces, digested into one
   stable key: the canonical graph fingerprint (never raw node ids), the
   planner instance label (name + bound knobs), the effective fusion
   setting, the runtime's domain count (baked into compiled instructions),
   and the budget ceiling the artifact was proven under. *)
let cache_key ?planner ?runtime ?fuse ?budget_bytes ?sanitize graph =
  let planner_label =
    match planner with
    | Some i -> Echo_core.Planner.label i
    | None -> "stash-all"
  in
  let fuse =
    match fuse with Some f -> f | None -> Fuse.env_enabled ()
  in
  let rt =
    match runtime with Some r -> r | None -> Echo_tensor.Parallel.default ()
  in
  let sanitize =
    match sanitize with
    | Some m -> m
    | None -> Echo_analysis.Sanitize.env_mode ()
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Graph.fingerprint graph;
            planner_label;
            string_of_bool fuse;
            string_of_int (Echo_tensor.Parallel.domains rt);
            (match budget_bytes with
            | None -> "unbounded"
            | Some b -> string_of_int b);
            (* The sanitizer is baked into the compiled run loop, so a
               sanitized and a plain executable must never share a cache
               entry. *)
            Echo_analysis.Sanitize.mode_name sanitize;
          ]))

let compile_graph ?budget_bytes ?planner ?runtime ?fuse ?sanitize ?cache
    graph =
  let build () =
    of_training_graph graph
    |> optimize ~enabled:false |> rewrite ?planner |> plan
    |> fuse_stage ?enabled:fuse
    |> compile ?budget_bytes ?runtime ?sanitize
  in
  match cache with
  | None -> build ()
  | Some c ->
    c.fetch
      ~key:(cache_key ?planner ?runtime ?fuse ?budget_bytes ?sanitize graph)
      ~compile:build

let compile_source ?device ?optimize:(opt_enabled = true) ?planner
    ?budget_bytes ?runtime ?fuse ?sanitize src =
  let opt = optimize ~enabled:opt_enabled (differentiate src) in
  compile ?budget_bytes ?runtime ?sanitize
    (fuse_stage ?enabled:fuse (plan (rewrite ?device ?planner opt)))

let describe fmt e =
  let pl = e.fused.planned in
  let rw = pl.rewritten in
  let opt = rw.optimized in
  let src = opt.training.source in
  Format.fprintf fmt "@[<v>pipeline %s:@," src.name;
  Format.fprintf fmt "  training graph: %d nodes@,"
    (List.length (Graph.nodes opt.training.autodiff.Echo_autodiff.Grad.graph));
  (match opt.opt_stats with
  | Some s ->
    Format.fprintf fmt "  optimized: %a@," Echo_opt.Pipeline.pp_stats s
  | None -> Format.fprintf fmt "  optimized: (pass skipped)@,");
  Format.fprintf fmt "  rewritten: policy=%s clones=%d@,"
    (Echo_core.Planner.label rw.planner)
    rw.report.Echo_core.Pass.clone_nodes;
  Format.fprintf fmt "  planned: %a@," Echo_exec.Memplan.pp pl.memplan;
  (match e.fused.fusion with
  | Some f ->
    Format.fprintf fmt
      "  fused: %d groups, %d interiors elided, arena %.1f -> %.1f MiB@,"
      (Fuse.group_count f) (Fuse.interior_count f)
      (float_of_int pl.memplan.Echo_exec.Memplan.arena_bytes /. (1024. *. 1024.))
      (float_of_int e.fused.fused_memplan.Echo_exec.Memplan.arena_bytes
      /. (1024. *. 1024.))
  | None -> Format.fprintf fmt "  fused: (stage disabled)@,");
  Format.fprintf fmt
    "  executable: %d instructions (%d active), footprint %.1f MiB@]"
    (Executor.instruction_count e.executor)
    (Executor.active_instruction_count e.executor)
    (float_of_int (Executor.footprint_bytes e.executor) /. (1024. *. 1024.))
