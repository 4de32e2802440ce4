(** OLLA-style static arena placement (Steiner et al.): search over slot
    placement orders, assigning each buffer the lowest non-conflicting byte
    offset, for a slab smaller than the one-shot best-fit walk of {!Memplan}
    produces (unfused, read through {!Assign.of_plan}).

    The search is simulated annealing over placement orders, seeded with a
    handful of deterministic heuristics (size-descending, duration-
    descending, area-descending, schedule order). Placement itself is exact:
    for a given order the returned offsets never overlap for buffers whose
    lifetimes intersect, so every candidate is sound by construction and the
    final plan still passes {!Assign.check} / Echo-verify's offset checker.

    It places without in-place handovers: a taker and the donor it would
    overwrite count as concurrent, so each gets its own range. No executor
    runs its layout — the executor runs the walk's — and it exists as a
    comparison: E19 solves the stash-all row of every small zoo graph and
    records where, and by how much, it beats the walk.

    The one guarantee is [<=] greedy: [solve] returns the walk's plan
    whenever no explored order beats it. *)

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

val improvement : greedy:Assign.t -> solved:Assign.t -> float
(** Fractional arena saving of [solved] over [greedy] (0 when equal). *)
