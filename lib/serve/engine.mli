(** The socket-free request engine behind [echoc serve].

    One engine owns the {!Plan_cache}, the tenant budget table and the
    batching policy; the socket server ({!Server}) is a thin transport over
    {!exec_all}, so tests and benchmarks drive the exact production code
    path without a socket.

    {2 Protocol}

    One request per line: a verb followed by [key=value] tokens, answered
    by exactly one [ok ...] or [err <reason>] line. Unknown verbs, unknown
    keys and malformed values are rejected loudly, naming the offender.

    - [ping] → [ok pong]
    - [stats] → [ok hits=H misses=M evictions=E entries=N bytes=B]
    - [shutdown] → [ok bye] (the transport owns actually stopping)
    - [compile <spec> [tenant=T]] → [ok key=K cached=B footprint=N] —
      compile the spec's training graph through the plan cache;
      [cached=true] is a hit that skipped the whole pipeline.
    - [train <spec> [steps=N] [lr=F] [corpus-seed=N] [tenant=T]] →
      [ok steps=N losses=h1,h2,...] — run {!Echo_train.Loop.train} over a
      synthetic Zipf-Markov corpus, compiling through the plan cache;
      losses are hex floats ([%h]) so clients can compare bit-exactly.
    - [eval <spec> tokens=i,j,k,... [tenant=T]] →
      [ok loss=%h batched=K] — score a single token sequence (mean
      next-token NLL over the [len-1] transitions) under the spec's
      deterministic initial parameters, with dropout forced off.
    - [lint <spec> [tenant=T]] →
      [ok findings=N errors=E warnings=W cached=B] followed by one line
      per finding ([[severity] check\@stage [ids]: message]) — run the
      full Echo-verify layer ({!Echo_compiler.Pipeline.verify} at the
      executable stage plus the static race checker
      {!Echo_compiler.Pipeline.race_verify}) over the spec's compiled
      artifact. Compilation goes through the plan cache, so linting a
      warm spec re-checks the cached executable without recompiling. A
      sound artifact answers with [errors=0] and only info-level lines
      (e.g. the false-sharing lint). This is the only multi-line [ok]
      response in the protocol.

    The model [<spec>] keys (all optional):
    [model] (lm|gru-lm|rnn-lm|peephole-lm, default lm), [hidden] (32),
    [embed] (= hidden), [layers] (1), [seq_len] (8), [batch] (4),
    [vocab] (50), [seed] (42), [dropout] (0). [eval] derives [seq_len]
    from the token count and ignores [batch]/[dropout].

    {2 Batching}

    {!exec_all} coalesces the [eval] requests of one drain into stacked
    executor steps: requests whose specs agree on everything but the batch
    dimension are grouped, interleaved round-robin across tenants (so no
    tenant monopolises a batch), chunked at [max_batch], and executed as
    one forward pass at batch [k] — request [j]'s step-[t] row is
    time-major row [t*k + j]. Every op on the logits path is
    row-independent and the kernels are bit-identical at every partition,
    so batched losses are {e bit-identical} to serial ones; the serve test
    suite asserts this at 1/2/4 domains.

    A warm chunk answers from the plan cache alone. Its cache key is
    memoised per (spec, batch, budget), and each cached eval executable
    carries a record of the spec whose parameters it holds; when the
    record matches, the chunk only sets the token ids and runs — no model
    build, no fingerprint, no parameter feed. Another [seed] on the same
    structure, a recompile after eviction or a chunk new to the engine
    builds and feeds instead. The record holds its executable weakly, so
    an evicted entry is not kept alive. Answers are the same bytes either
    way.

    {2 Tenants}

    [tenants] maps tenant names to device-memory budgets. A request
    carrying [tenant=T] compiles under that budget (it is part of the
    cache key); crossing it answers [err budget exceeded ...] via
    {!Echo_compiler.Executor.Budget_exceeded}. A batched group compiles
    under the minimum budget of its members and falls back to per-request
    execution (each under its own budget) if the stacked batch does not
    fit. Naming an unknown tenant is an error; omitting [tenant] means
    unbudgeted. *)

type t

val create :
  ?cache_bytes:int ->
  ?tenants:(string * int) list ->
  ?max_batch:int ->
  ?runtime:Echo_tensor.Parallel.t ->
  unit ->
  t
(** [cache_bytes] caps the plan cache ({!Plan_cache.create}); [tenants]
    maps names to budget bytes; [max_batch] (default 8) caps the stacked
    eval batch; [runtime] is the kernel runtime every compile uses
    (default: {!Echo_tensor.Parallel.default}, sized by [ECHO_DOMAINS]).

    The runtime, the fusion setting ([ECHO_FUSION],
    {!Echo_ir.Fuse.env_enabled}) and the sanitizer mode ([ECHO_SANITIZE],
    {!Echo_analysis.Sanitize.env_mode}) are resolved from the environment
    once, here, and every request keys, compiles and trains under them:
    no request reads those variables, so a value set after [create]
    cannot fail a drain. ([ECHO_VERIFY], which accepts any value, is
    still read by each compile.)
    @raise Invalid_argument on a non-positive [cache_bytes]/[max_batch],
    a duplicate/empty tenant name, or a malformed [ECHO_FUSION],
    [ECHO_SANITIZE] or [ECHO_DOMAINS] (the message names the variable). *)

val cache : t -> Plan_cache.t

val exec : t -> string -> string
(** Answer one request line ([exec_all] with a singleton drain). *)

val exec_all : t -> string list -> string list
(** Answer one drain of request lines, in order. Non-[eval] requests are
    answered independently; [eval] requests are batched as described
    above. The response list has exactly one line per request line. *)
