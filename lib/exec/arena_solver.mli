(** OLLA-style static arena optimisation (Steiner et al.): jointly search
    over slot placement orders, assigning each buffer the lowest
    non-conflicting byte offset, to shrink the transient arena below what
    the one-shot best-fit walk of {!Memplan} produces (unfused, read
    through {!Assign.of_plan}).

    The search is simulated annealing over placement orders, seeded with a
    handful of deterministic heuristics (size-descending, duration-
    descending, area-descending, schedule order). Placement itself is exact:
    for a given order the returned offsets never overlap for buffers whose
    lifetimes intersect, so every candidate is sound by construction and the
    final plan still passes {!Assign.check} / Echo-verify's offset checker.

    [solve] never regresses: it returns the greedy walk's plan
    whenever no explored order beats it, so the solved arena is always [<=]
    the greedy arena. *)

open Echo_ir

type config = {
  iters : int;  (** annealing steps per restart (auto-scaled down on big graphs) *)
  restarts : int;  (** independent annealing runs *)
  seed : int;  (** deterministic RNG seed — same seed, same plan *)
}

val default : config

val solve : ?config:config -> Graph.t -> Assign.t
(** Optimised static plan for the graph's transient buffers. The result is
    validated internally ({!Assign.validate}) before being returned. *)

val improvement : Graph.t -> greedy:Assign.t -> solved:Assign.t -> float
(** Fractional arena saving of [solved] over [greedy] (0 when equal). *)
