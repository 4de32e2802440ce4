(** Deterministic fault injection for the training runtime.

    A fault plan is a set of scheduled faults (fire at an exact step) plus
    optional seeded "flaky"/"flipflaky" sources that fire pseudo-random
    faults — deterministically: the draw at step [s] is a pure function of
    [(seed, s)], so two runs with the same plan observe the same faults.

    Plans come from the [ECHO_FAULTS] environment variable or are built
    programmatically with {!of_specs}. The grammar is semicolon-separated
    entries:

    {v
      oom@STEP=BYTES            simulated OOM: device budget shrinks to BYTES
      oom@STEP=PCT%             ... to PCT% of the current executor footprint
      transient@STEP            transient kernel failure (bounded retry)
      transient@STEP=WHY        ... with a reason string
      nan@STEP                  poison the step's loss with a NaN
      flip@STEP=param:INDEX:BIT flip bit BIT (0..63) of parameter scalar
                                INDEX (flattened across all parameter
                                tensors in declaration order, mod total) —
                                persists: the corrupted value trains on
      flip@STEP=act:SITE:INDEX:BIT
                                flip bit BIT of scalar INDEX (mod numel) of
                                activation site SITE, immediately after the
                                site's kernel writes it during STEP's
                                forward/backward sweep. Sites index the
                                deterministic list of materialising forward
                                nodes of the original training graph
                                ({!Echo_train.Loop} resolves them), so the
                                same spec hits the same tensor under every
                                planner, fusion setting and domain count
      flaky@SEED=PERMILLE       seeded random transients: at each step a
                                deterministic draw from SEED fires a
                                transient with probability PERMILLE/1000
      flipflaky@SEED=PERMILLE   seeded random parameter bit-flips: at each
                                step a deterministic draw from SEED fires a
                                [Flip_param] (site and bit drawn from the
                                same stream) with probability PERMILLE/1000
    v}

    e.g. [ECHO_FAULTS="oom@3=1048576;flip@5=param:1009:52;nan@7"].

    Malformed plans fail fast: {!parse}/{!of_specs} bounds-check every entry
    (BIT in 0..63, non-negative STEP/INDEX/SITE) and raise {!Bad_spec}
    naming the offending entry before any training run starts. *)

type kind =
  | Oom of { budget_bytes : int }
      (** The simulated device shrank to [budget_bytes]; execution above the
          ceiling must raise [Echo_compiler.Executor.Budget_exceeded]. *)
  | Oom_shrink of { fraction : float }
      (** Relative variant: ceiling = [fraction] of the current footprint
          (always fires a budget violation for [fraction < 1]). *)
  | Transient of string  (** transient kernel failure; retry is expected *)
  | Nan_poison  (** the step's loss reads as NaN *)
  | Flip_param of { index : int; bit : int }
      (** Single-event upset in parameter memory: bit [bit] of flattened
          parameter scalar [index mod total] flips and stays flipped. *)
  | Flip_act of { site : int; index : int; bit : int }
      (** Single-event upset in activation memory: bit [bit] of scalar
          [index mod numel] of forward site [site] flips right after the
          site's kernel executes, for one step. *)

type spec = { step : int; kind : kind }

type t

exception Transient_failure of string
(** The simulated kernel failure a [Transient] fault raises. *)

exception Bad_spec of string
(** Raised by {!parse} / {!of_env} / {!of_specs} on a malformed or
    out-of-bounds entry; the payload names the offending entry and the
    accepted grammar — [entry "oom@x": expected ...]. {!of_env} prefixes it
    with [ECHO_FAULTS]; other callers prefix their own source. *)

val none : t
(** The empty plan (never fires). *)

val of_specs : ?flaky:int * int -> ?flip_flaky:int * int -> spec list -> t
(** Programmatic plan. [flaky] and [flip_flaky] are [(seed, permille)].
    Each spec fires at most once; multiple specs may share a step (they
    fire on successive {!take} calls, e.g. across retries).
    @raise Bad_spec on an out-of-bounds flip or a negative step. *)

val parse : string -> t
(** Parse the [ECHO_FAULTS] grammar. @raise Bad_spec on malformed input. *)

val of_env : unit -> t
(** Plan from [ECHO_FAULTS] ([none] when unset or empty).
    @raise Bad_spec on malformed input. *)

val is_empty : t -> bool
(** No scheduled faults remain and no flaky/flipflaky source is armed. *)

val specs : t -> spec list
(** The scheduled faults not yet consumed, in plan order — non-destructive,
    for upfront validation (e.g. {!Echo_train.Loop} checks every [Flip_act]
    site exists before compiling). *)

val take : t -> step:int -> kind option
(** The fault to fire at [step], if any: the earliest-added unfired spec
    scheduled for [step], else one deterministic flaky draw per step, else
    one deterministic flipflaky draw per step. Each call consumes what it
    returns, so a retry of the same step sees the next scheduled fault or
    none. *)

val kind_to_string : int -> kind -> string
(** [kind_to_string step kind] renders one fault in {!parse} syntax
    (e.g. ["flip@3=param:1009:52"]). *)

val to_string : t -> string
(** Remaining plan, in {!parse} syntax (diagnostics). *)
