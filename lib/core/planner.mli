(** The pluggable recomputation-planner architecture.

    A planner is a named strategy that, given a device and a training graph,
    produces a {!Select.selection} (which forward nodes to mirror into the
    backward pass) plus, optionally, its own static offset assigner for the
    {!Echo_exec.Assign} arena. Planners self-describe: each carries a knob
    list (name, doc, default) so drivers like [echoc --policy list] and the
    README policy table are generated from the registry instead of being
    maintained by hand.

    Everything downstream — [Pass], [Autotune], [Pipeline.rewrite],
    [Loop.train], [echoc], the benches, the examples and the tests — names
    planners by registry name ({!instantiate}), the one planner vocabulary.
    Adding a policy means registering one value here; no variant to
    extend, no per-layer plumbing.

    The registry ships with:
    - [stash-all], [mirror-all-cheap], [checkpoint-sqrt], [echo] (knob
      [budget]), [echo-cheap], [echo-noshare], [echo-notrans],
      [recompute-all] — the paper's comparison set and ablations;
    - [dp-bptt] — Gruslys et al.-style balanced-byte segment checkpointing
      with an optional memory budget (knobs [slots], [budget-mib]);
    - [olla-arena] — stash-all semantics with the OLLA-style annealed
      lifetime+offset arena solver ({!Echo_exec.Arena_solver}) as its
      static-plan assigner (knobs [iters], [restarts], [seed]). *)

open Echo_ir
open Echo_gpusim

type knob = {
  key : string;
  doc : string;
  default : float;  (** every knob is a float; integer knobs truncate *)
}

type knobs = (string * float) list
(** Overrides for a planner's declared knobs, by key. *)

type outcome = {
  selection : Select.selection;
  share : bool;  (** share recomputation clones among backward consumers *)
  rewritten : (Graph.t * Echo_exec.Memplan.report) option;
      (** the graph the selection rewrites to and its unfused memory plan
          ({!Echo_exec.Memplan.plan}), when the planner already built and
          measured them — [Pass] then neither rewrites nor plans again.
          [None] for an empty selection. *)
}

type t = {
  name : string;
  description : string;
  knob_spec : knob list;
  claim_tolerance : float;
      (** stated bound for the estimator-honesty contract: the selection's
          [claimed_saving_bytes] must be within this fraction of the
          baseline stash bytes from the measured arena saving. Ablations
          with deliberately naive estimators declare large tolerances. *)
  label : knobs -> string;
      (** instance display name, e.g. ["echo(10%)"]; equals [name] for
          knobless planners *)
  plan :
    knobs:knobs ->
    device:Device.t ->
    baseline:Echo_exec.Memplan.report ->
    Graph.t ->
    outcome;
      (** [baseline] is the graph's own memory plan, which the pass has
          already measured *)
  offsets : (knobs:knobs -> Graph.t -> Echo_exec.Assign.t) option;
      (** static arena assigner; [None] means the offsets of the unfused
          memory plan's best-fit walk ({!Echo_exec.Memplan.plan}) *)
}

type instance = { planner : t; knobs : knobs }
(** A planner with its knob overrides bound. Compare instances by
    {!label} — the record holds closures, so structural equality raises. *)

(** {1 Registry} *)

val register : t -> unit
(** @raise Invalid_argument on a duplicate name. *)

val all : unit -> t list
(** Every registered planner, in registration order (builtins first). *)

val find : string -> t option
(** Lookup by exact name (aliases not applied — see {!parse}). *)

val instantiate : ?knobs:knobs -> string -> instance
(** Resolve a registered planner by name (aliases applied) and bind knob
    overrides. @raise Invalid_argument on an unknown name or knob key. *)

val parse : string -> (instance, string) result
(** Parse a command-line spec: [name] or [name:key=v,key2=v2], e.g.
    ["echo:budget=0.05"] or ["dp-bptt:slots=8"]. Legacy aliases
    ([mirror-all], [checkpoint]) resolve to their registered names. *)

(** {1 Instances} *)

val label : instance -> string
val knob_value : instance -> string -> float
(** Bound override if present, else the declared default.
    @raise Invalid_argument for a key the planner does not declare. *)

val knob_is_set : instance -> string -> bool
(** True when the instance binds an override for the key. *)

val declares : t -> string -> bool
val with_knob : instance -> string -> float -> instance
(** Bind (or override) one knob. @raise Invalid_argument on an undeclared
    key. *)

val plan :
  instance ->
  device:Device.t ->
  baseline:Echo_exec.Memplan.report ->
  Graph.t ->
  outcome
(** [baseline] must be {!Echo_exec.Memplan.plan} of the graph. *)

val assigner : instance -> Graph.t -> Echo_exec.Assign.t
(** The instance's static offset plan: the offsets {!Echo_exec.Memplan.plan}'s
    walk assigns the unfused graph ({!Echo_exec.Assign.of_plan}), unless
    the planner overrides it. *)

val pp_list : Format.formatter -> unit -> unit
(** The [--policy list] rendering: every registered planner with its
    description and knob defaults. *)
