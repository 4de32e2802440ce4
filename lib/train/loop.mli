(** The fault-tolerant training loop: compiles the training graph once
    through [Echo_compiler.Pipeline] and drives the slot-based executor over
    it, one mini-batch per step — parameters live in arrays and are fed by
    slot, so the steady-state step does no scheduling and no tensor
    allocation inside the graph.

    The loop is graph-agnostic: give it any graph whose outputs are the loss
    followed by the gradients in parameter order — the stash-all baseline
    and every Echo/checkpoint rewrite of it train identically (and, being
    deterministic, bit-identically when the rewrite preserves semantics).

    {2 Recovery}

    The loop survives the failures a long training run actually meets:

    - {b OOM / budget violations.} [budget_bytes] (static, or shrunk mid-run
      by an injected {!Echo_runtime.Fault} OOM) is a hard arena ceiling.
      When compilation crosses it, the loop re-plans the {e original} graph
      through {!Echo_core.Autotune.fit_memory}'s escalation ladder
      (stash-all → Echo at rising overhead budgets → √n checkpointing →
      recompute-all), re-compiles once at the cheapest surviving policy, and
      continues the same run. Because every policy computes the same math,
      losses stay bit-identical to an unfaulted run at that policy. If even
      recompute-all does not fit, {!Echo_compiler.Executor.Budget_exceeded}
      escapes to the caller.
    - {b Transient failures.} A step that raises
      {!Echo_runtime.Fault.Transient_failure} is retried up to [max_retries]
      times (default 2), then skipped: the batch is consumed but no loss is
      recorded and no update applied.
    - {b Non-finite steps.} A NaN/Inf loss or gradient norm records the loss
      but skips the parameter update.
    - {b Bit flips.} A [flip@STEP=param:...] fault upsets one bit of one
      parameter scalar (flattened across all parameter tensors, mod total)
      at the start of the faulted step; the corruption persists and trains
      on. A [flip@STEP=act:SITE:...] fault arms
      {!Echo_compiler.Executor.schedule_flip} on activation site [SITE] —
      the [SITE]th materialising non-elementwise forward node of the
      original graph in schedule order — so the flip lands at the same
      dataflow point under every planner, fusion setting and domain count.
      Neither is a detected failure by itself: whether the NaN guard or
      nothing at all fires afterwards is exactly what the fault-injection
      campaigns ({!Echo_campaign.Campaign}) measure.

    Fault plans are validated before the initial compile: an activation
    site or parameter flip the graph cannot host raises
    {!Echo_runtime.Fault.Bad_spec} naming the offending entry up front,
    never mid-train.

    Every recovery action is surfaced through [on_event] with structured
    payloads ({!Echo_runtime.Event}). *)

open Echo_tensor
open Echo_ir

type batch = (Node.t * Tensor.t) list
(** Placeholder feeds for one step. *)

type step_stats = { step : int; loss : float; grad_norm : float }

type result = {
  losses : float list;
      (** per-step training loss, in step order (skipped steps absent) *)
  params : (Node.t * Tensor.t) list;  (** final parameter values *)
}

type checkpoint_spec = {
  path : string;  (** checkpoint file ({!Echo_runtime.Checkpoint} format) *)
  every : int;  (** write every [every] consumed batches ([<= 0] disables) *)
  resume : bool;
      (** when [path] exists, restore params, optimizer state, RNG state,
          loss history and step counter from it, skip the already-consumed
          prefix of [batches], and continue — reproducing the uninterrupted
          run bit-exactly *)
}

val train :
  graph:Graph.t ->
  params:(Node.t * Tensor.t) list ->
  optimizer:Optimizer.t ->
  ?clip_norm:float ->
  ?on_step:(step_stats -> unit) ->
  ?on_event:(Echo_runtime.Event.t -> unit) ->
  ?budget_bytes:int ->
  ?faults:Echo_runtime.Fault.t ->
  ?checkpoint:checkpoint_spec ->
  ?device:Echo_gpusim.Device.t ->
  ?max_retries:int ->
  ?rng:Rng.t ->
  ?runtime:Parallel.t ->
  ?fuse:bool ->
  ?sanitize:Echo_analysis.Sanitize.mode ->
  ?planner:Echo_core.Planner.instance ->
  ?cache:Echo_compiler.Pipeline.cache ->
  batches:batch list ->
  unit ->
  result
(** [graph]'s outputs must be [loss :: grads] aligned with [params]. Applies
    optional global-norm clipping before each update. [runtime] selects the
    multicore kernel runtime for the compiled executor (default: sized by
    [ECHO_DOMAINS]; training results are bit-identical either way). [fuse]
    enables the elementwise fusion stage (default: the [ECHO_FUSION]
    environment setting); losses are bit-identical fused or not.
    [sanitize] compiles the shadow-memory sanitizer into every executor
    the loop builds (default: the [ECHO_SANITIZE] environment setting);
    sanitized training is bit-identical to plain — the race suite asserts
    this at every domain count — and a step whose sanitizer finds errors
    raises {!Echo_analysis.Sanitize.Sanitize_failed}. [planner]
    is a recomputation planner resolved through the
    {!Echo_core.Planner} registry ([echoc --policy]); it rewrites the
    original graph once before the initial compile — every registered
    planner trains bit-identically to the stash-all baseline.

    [cache] is a content-addressed compile cache
    ({!Echo_compiler.Pipeline.cache}): the initial compile (and any
    recovery recompile) is served from it on a key hit, skipping the whole
    pipeline. Cached executors may come from a different build of the same
    structure, so the loop feeds them by input {e name} and re-derives
    activation flip sites from the executor's own graph; training results
    are bit-identical cached or cold — the serve test suite asserts this at
    every domain count.

    [budget_bytes] caps the executor arena (see {e Recovery} above);
    [device] is the simulated device the escalation ladder re-plans
    against. [faults] is a deterministic fault-injection plan; when omitted
    the loop builds one from the [ECHO_FAULTS] environment variable
    ({!Echo_runtime.Fault.of_env} — {!Echo_runtime.Fault.none} when unset),
    which is how the chaos test rule injects faults into the whole train
    suite. [rng] is the data-pipeline generator whose state is
    checkpointed and restored, so resumed runs draw the same stream.

    @raise Invalid_argument on output/parameter arity mismatch, a missing
    placeholder feed (named, with a hint), or a checkpoint that does not
    match the model.
    @raise Echo_compiler.Executor.Budget_exceeded when no policy on the
    escalation ladder fits the budget.
    @raise Echo_runtime.Checkpoint.Corrupt when resuming from a damaged
    checkpoint file. *)

val is_act_site : Node.t -> bool
(** Activation-site predicate for [flip@STEP=act:SITE:...] faults: a
    materialising, non-elementwise node that is neither an input nor a
    compile-time constant. Site [SITE] is the [SITE]th forward node of the
    original graph, in schedule order, that satisfies it. *)

val perplexity : float -> float
(** [exp loss], the language-modelling quality metric. *)
