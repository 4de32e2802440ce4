(** The staged compilation pipeline.

    Every consumer of the system — the training loop, the [echoc] driver,
    the benchmarks and the examples — lowers a model through the same
    explicit stages, each an inspectable, cacheable value:

    {v
      source      --differentiate-->  training     (autodiff: loss + grads)
      training    --optimize------->  optimized    (fold + CSE)
      optimized   --rewrite-------->  rewritten    (the Echo pass)
      rewritten   --plan----------->  planned      (the rewrite's memory plan)
      planned     --fuse----------->  fused        (elementwise chain groups)
      fused       --compile-------->  executable   (slot-based executor)
    v}

    The stages compose with [|>]:
    {[
      let exe =
        Pipeline.of_model model |> Pipeline.differentiate
        |> Pipeline.optimize
        |> Pipeline.rewrite
             ~planner:(Echo_core.Planner.instantiate ~knobs:[ ("budget", 0.03) ] "echo")
        |> Pipeline.plan |> Pipeline.fuse |> Pipeline.compile
      in
      let outputs = Executor.eval (Pipeline.executor exe) ~feeds
    ]} *)

open Echo_ir

(** {1 Source stage} *)

type source = {
  name : string;
  loss : Node.t;  (** scalar forward loss *)
  params : Node.t list;  (** variables to differentiate with respect to *)
  placeholders : Node.t list;
}

val source :
  ?name:string ->
  ?placeholders:Node.t list ->
  loss:Node.t ->
  params:Node.t list ->
  unit ->
  source

val of_model : Echo_models.Model.t -> source
val forward_graph : source -> Graph.t

(** {1 Training stage} *)

type training = { source : source; autodiff : Echo_autodiff.Grad.training }

val differentiate : source -> training
(** Extend the forward graph with the symbolic backward pass; graph outputs
    are the loss followed by every parameter gradient. *)

val of_training_graph : ?name:string -> Graph.t -> training
(** Enter the pipeline with an already-built training graph (deserialised
    with [Serial], or produced outside the model zoo), skipping the autodiff
    stage. Its parameter list is unknown, so [autodiff.grads] is empty. *)

(** {1 Optimized stage} *)

type optimized = {
  training : training;
  graph : Graph.t;
  opt_stats : Echo_opt.Pipeline.stats option;
      (** [None] when the pass was skipped ([~enabled:false] or a pre-built
          graph entered the pipeline). *)
}

val optimize : ?enabled:bool -> training -> optimized
(** Constant folding + CSE (default [enabled = true]). *)

(** {1 Rewritten stage} *)

type rewritten = {
  optimized : optimized;
  graph : Graph.t;
  planner : Echo_core.Planner.instance;
      (** the registry planner the stage ran *)
  report : Echo_core.Pass.report;
      (** baseline + optimised footprint/time measurements *)
}

val rewrite :
  ?device:Echo_gpusim.Device.t ->
  ?planner:Echo_core.Planner.instance ->
  optimized ->
  rewritten
(** Apply a recomputation planner resolved through the
    {!Echo_core.Planner} registry ([Planner.instantiate ?knobs name]). The
    default is ["stash-all"] (the framework baseline) on
    {!Echo_gpusim.Device.titan_xp}. *)

(** {1 Planned stage} *)

type planned = {
  rewritten : rewritten;
  graph : Graph.t;
  memplan : Echo_exec.Memplan.report;
      (** the rewrite stage's unfused plan ([report.optimised_mem]): its
          best-fit offsets are what an unfused executor runs *)
}

val plan : rewritten -> planned
(** The unfused memory plan, which the rewrite stage already measured: no
    graph is planned again. *)

(** {1 Fused stage} *)

type fused = {
  planned : planned;
  graph : Graph.t;
  fusion : Fuse.plan option;
      (** [None] when the stage is disabled — nothing fuses *)
  fused_memplan : Echo_exec.Memplan.report;
      (** the plan {!compile} hands the executor, which allocates exactly its
          buffers: planned under the fusion plan when enabled (its
          [fusion] is this record's), the very value [planned.memplan]
          when disabled *)
}

val fuse : ?enabled:bool -> ?runtime:Echo_tensor.Parallel.t -> planned -> fused
(** Group maximal single-consumer elementwise chains ({!Echo_ir.Fuse}) and
    re-plan memory for the fused instruction stream — interiors get no
    buffer, so the fused arena is never larger than the unfused one.
    [enabled] defaults to {!Echo_ir.Fuse.env_enabled} ([ECHO_FUSION],
    on unless set to [0]/[off]/[false]/[no]).

    The fusion plan is a function of the graph alone. [runtime] is
    accepted and ignored: existing callers pass the handle they later
    compile with, and no runtime setting changes what fuses. *)

(** {1 Executable stage} *)

type executable = { fused : fused; executor : Executor.t }

val compile :
  ?budget_bytes:int ->
  ?runtime:Echo_tensor.Parallel.t ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  fused ->
  executable
(** Lower to the slot executor, compiled from [fused_memplan]
    ({!Executor.compile}[ ~plan]), so [Executor.plan] of the result is that
    very value. [runtime] selects the kernel runtime the
    executor's instructions partition work over (default
    [Parallel.default ()], sized by [ECHO_DOMAINS]); this is the single
    place the training loop, [echoc], bench and examples pick multicore
    execution.

    [budget_bytes] is passed through to {!Executor.compile}: compilation
    aborts with {!Executor.Budget_exceeded} if the arena would cross it.

    [sanitize] (default [ECHO_SANITIZE] via
    {!Echo_analysis.Sanitize.env_mode}) compiles the shadow-memory
    sanitizer into the executor's run loop — see {!Executor.compile}. *)

val executor : executable -> Executor.t

val planned_of : executable -> planned
(** The planned stage the executable was compiled from. *)

(** {1 Verification}

    The Echo-verify layer: the independent static checkers of
    {!Echo_analysis.Verify} run over whatever stage value you hold. *)

type stage =
  | Source of source
  | Training of training
  | Optimized of optimized
  | Rewritten of rewritten
  | Planned of planned
  | Fused of fused
  | Executable of executable

val verify : stage -> Echo_diag.Report.t
(** Re-prove the artifacts the given stage carries: graph/schedule shape
    and topology, determinism, recomputation-clone fidelity at every stage;
    plus, from [Planned] on, the memory plan the stage carries
    ({!Echo_analysis.Verify.check_ranges}, under the plan's own fusion:
    the unfused plan at [Planned], the fused plan at [Fused], the plan the
    executor runs, {!Executor.plan}, at [Executable]), and the fusion plan
    from [Fused] on. Returns the
    collected report; a sound artifact has no error findings.

    {!compile} runs this automatically under [ECHO_VERIFY=1]
    ({!Echo_analysis.Verify.env_enabled}) and raises
    {!Echo_analysis.Verify.Verify_failed} on errors. *)

val race_verify : executable -> Echo_diag.Report.t
(** The static race / partition-disjointness analysis
    ({!Echo_analysis.Race.check}) over everything the compiled executable
    carries: its kernel runtime (chunk coverage and disjointness of every
    fanned-out instruction, in-place alias legality, false-sharing lint),
    and its plan ({!Executor.plan}): the fusion groups (sweep extents),
    the liveness intervals it frees against (rebuilt by
    {!Echo_exec.Memplan.intervals}; no range reused under a pending read)
    and its slab offsets (no two address-overlapping live values). A sound
    executable has no error
    findings at any domain count. Also runs automatically — alongside
    {!verify} — inside {!compile} under [ECHO_VERIFY=1]. *)

(** {1 Compile cache}

    The content-addressed plan-cache hook. The pipeline stays policy-free
    about storage and eviction: a cache is one function that either serves
    [key] from its table or runs [compile] once and remembers the result.
    [Echo_serve.Plan_cache] implements it with cost-aware
    (GreedyDual-Size-Frequency) eviction under a byte cap and
    single-flight compilation. *)

type cache = {
  fetch : key:string -> compile:(unit -> executable) -> executable;
}

val cache_key :
  ?planner:Echo_core.Planner.instance ->
  ?runtime:Echo_tensor.Parallel.t ->
  ?fuse:bool ->
  ?budget_bytes:int ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  Graph.t ->
  string
(** The stable content address of what {!compile_graph} would produce:
    digest of the canonical {!Echo_ir.Graph.fingerprint} (never raw node
    ids), the planner instance label (name + knobs), the effective fusion
    setting, the runtime's domain count, the budget ceiling, and the
    sanitizer mode (baked into the run loop, so a sanitized and a plain
    executable never share an entry). Stable across
    processes; two graphs with equal fingerprints compiled under equal
    knobs share one key. *)

(** {1 Shorthands} *)

val compile_graph :
  ?budget_bytes:int ->
  ?planner:Echo_core.Planner.instance ->
  ?runtime:Echo_tensor.Parallel.t ->
  ?fuse:bool ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  ?cache:cache ->
  Graph.t ->
  executable
(** [of_training_graph |> optimize ~enabled:false |> rewrite ?planner
    |> plan |> fuse |> compile]: compile an existing training graph (default
    planner ["stash-all"], i.e. as-is; [fuse] defaults to the [ECHO_FUSION]
    environment setting). This is what [Loop.train] uses, both on the
    initial compile and when re-planning under a shrunk [budget_bytes].

    With [cache], the stages above only run on a miss: a hit for
    {!cache_key} serves the previously compiled executable and skips the
    entire pipeline, including the [ECHO_VERIFY=1] self-certification
    (the verdict is a pure function of the artifact and was rendered when
    the entry was built). The served executor's node ids belong to the
    build that populated the entry; {!Executor.feed} resolves this build's
    nodes against it by name. *)

val compile_source :
  ?device:Echo_gpusim.Device.t ->
  ?optimize:bool ->
  ?planner:Echo_core.Planner.instance ->
  ?budget_bytes:int ->
  ?runtime:Echo_tensor.Parallel.t ->
  ?fuse:bool ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  source ->
  executable
(** The whole pipeline in one call. *)

val describe : Format.formatter -> executable -> unit
(** Per-stage summary: node counts, opt stats, planner, plan, footprint. *)
