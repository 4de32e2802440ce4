(** Deterministic multicore kernel runtime.

    A runtime is either fully sequential or a persistent pool of OCaml 5
    [Domain]s blocking on a condition variable; {!parallel_for} fans a loop
    body out over disjoint contiguous index ranges and joins before
    returning, so kernels keep their sequential memory discipline (no
    allocation, no retained closures) across calls.

    {b Determinism contract.} [parallel_for] covers [0, n) with disjoint
    chunks; chunk [c] always spans [(c*n/parts, (c+1)*n/parts)], a pure
    function of [(n, parts)], and [parts] is itself a pure function of the
    loop size, the work hint, and the handle's configuration. Domains
    claim chunks dynamically from a shared atomic counter (work stealing),
    but since every output element belongs to exactly one chunk and each
    chunk runs the same per-element accumulation order as the sequential
    loop, results are {e bit-identical} to the sequential kernel at every
    domain count and across repeated runs — the property the compiler's
    differential suite enforces (see {!Tensor.Into}).

    {b Configuration.} Every handle carries its execution parameters —
    fan-out work gate, oversubscription — so two executors compiled with
    different settings can run concurrently in one process without racing
    on global state. *)

type t
(** A kernel runtime handle: a sequential or pooled execution engine plus
    its execution configuration. *)

val sequential : t
(** Runs every {!parallel_for} inline on the calling domain, with the
    default configuration. *)

val create :
  ?domains:int ->
  ?oversubscribe:bool ->
  ?min_fanout_work:int ->
  unit ->
  t
(** [create ~domains ()] spawns a pool of [domains - 1] worker domains; the
    calling domain is the remaining participant of every [parallel_for].
    [domains = 1] spawns nothing and behaves like {!sequential}. When
    [domains] is omitted, {!env_domains} decides. Every pool is registered
    with [at_exit] for shutdown, so leaking one cannot hang process exit.

    - [oversubscribe] (default [false]): when [false], the pool is sized
      at [min domains (hardware_parallelism ())] and no worker beyond
      that is ever spawned — oversubscribing cores is a large
      constant-factor loss, and even a {e parked} surplus domain taxes
      every minor collection in the process (a stop-the-world handshake
      across all live domains). [true] spawns the full requested pool
      regardless (used by the differential tests to force the pool path
      on small machines).
    - [min_fanout_work] (default [2^18]): minimum total scalar work
      ([n * work]) below which [parallel_for] runs inline — the fan-out
      wakeup/join latency is tens of microseconds, so small kernels are
      strictly faster sequential.

    @raise Invalid_argument if [domains < 1] or [min_fanout_work < 0]. *)

val domains : t -> int
(** Total participating domains ([1] for {!sequential}). *)

val effective_fanout : t -> int
(** The number of domains a kernel may actually spread across:
    [min (domains t) (hardware_parallelism ())], or [domains t] when the
    handle oversubscribes. [1] for {!sequential}. *)

val hardware_parallelism : unit -> int
(** [Domain.recommended_domain_count] observed once at startup, clamped to
    at least 1. *)

val min_fanout_work : t -> int
(** The handle's fan-out work gate. *)

val chunks_per_domain : int
(** [4]: the target number of stealable chunks per fanned-out domain,
    bounding straggler imbalance on ragged rows. Together with
    {!effective_fanout} and {!min_fanout_work}, this fully determines the
    partition [parallel_for] uses for a given [(n, work)] — what the static
    race checker re-derives. *)

val shutdown : t -> unit
(** Stop and join the pool's workers (idempotent, no-op on a sequential
    runtime). A shut-down pool must not be used again. *)

val env_domains : unit -> int
(** The domain count selected by the [ECHO_DOMAINS] environment variable
    ([1] = fully sequential); defaults to [Domain.recommended_domain_count]
    when the variable is unset or empty.
    @raise Invalid_argument when the variable is set to anything but a
    positive integer — a misspelt setting must not silently fall back. *)

val default : unit -> t
(** The process-wide runtime, created on first use with {!env_domains}
    domains. This is what [Executor.compile] uses when no [?runtime] is
    passed. *)

val set_default_domains : int -> t
(** Replace the process-wide runtime with a fresh one of the given size
    (shutting the previous pool down) and return it. For drivers and
    benchmarks that override [ECHO_DOMAINS] programmatically. *)

val parallel_for : t -> ?work:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~work ~n body] covers [0, n) with disjoint
    [body lo hi] chunk calls. [work] (default [1]) estimates the scalar
    operations per index; the loop fans out only when [n * work] reaches
    the handle's [min_fanout_work] gate and the effective fan-out exceeds
    one, and then splits into at most [effective_fanout t *
    chunks_per_domain] chunks (never more than [n], never finer than a
    quarter-gate of work each) that the participating domains claim
    dynamically. [body] must only write locations owned by its own chunk,
    and must not recursively invoke [parallel_for] on the same runtime.
    Concurrent [parallel_for] calls on the same pool from different
    domains are not allowed (kernel calls are barriers; executors
    sequence them). An exception raised by any chunk is re-raised on the
    caller after every chunk has finished. *)
