(** Recomputation-plan selection: the Echo cost-benefit analysis and the
    baseline policies it is compared against.

    For each stashed feature map, Echo builds a {e recomputation plan} by
    walking the candidate's ancestors until values that are available to the
    backward pass anyway (parameters, inputs, other stashed maps, previously
    mirrored nodes). Three mechanisms make the plan honest:

    - {e cut decisions}: when force-stashing an intermediate costs fewer
      bytes than the frontier its recomputation would pin, the chain is cut
      there (the "transitive stashing" estimator of the paper);
    - {e shared recomputation}: chain costs are counted once — clones are
      shared among all backward consumers (the paper's recompute-count
      estimator), and chains may read previously mirrored values through
      their clones at no extra cost;
    - {e chain locality}: a plan whose transitive roots are further than
      [max_chain_span] forward-schedule positions away is rejected, which
      plants periodic stash "fences" in recurrent chains and bounds how much
      recomputed state can be live at once during the backward pass.

    Candidates are accepted greedily while the accumulated recomputation
    time stays within [overhead_budget] (a fraction of the baseline
    iteration time): first cheap (elementwise-only) plans in schedule order,
    then expensive plans by bytes-saved-per-second. *)

open Echo_ir
open Echo_gpusim

type selection = {
  mirror_ids : Ids.Set.t;
  claimed_saving_bytes : int;  (** what the estimator believes it saves *)
  claimed_cost_s : float;  (** estimated recomputation time per iteration *)
}

val echo :
  ?cheap_only:bool ->
  ?transitive:bool ->
  ?max_chain_span:int ->
  Device.t ->
  Graph.t ->
  overhead_budget:float ->
  selection
(** The Echo policy. [cheap_only] disables the second (expensive) pass;
    [transitive:false] replaces the estimator with the naive
    per-node-in-isolation one (the E11 ablation — selection quality
    degrades but the rewrite stays sound). [max_chain_span] defaults to
    [max 64 (forward_nodes / 8)]. *)

val mirror_all_cheap : Graph.t -> selection
(** Legacy framework heuristic: mirror every stashed node whose operator is
    cheap, with no cost-benefit analysis at all. *)

val checkpoint_sqrt : Echo_gpusim.Device.t -> Graph.t -> selection
(** Chen et al. (2016) √n checkpointing: split the forward schedule into
    ~√n segments, keep each segment's outgoing frontier, recompute segment
    interiors during backward. *)

val recompute_all : Echo_gpusim.Device.t -> Graph.t -> selection
(** Recompute every recomputable forward node from the model inputs: the
    stash lower bound (and time upper bound). *)

val selection_of : Device.t -> Node.t list -> claimed_saving:int -> selection
(** Build a selection from an explicit mirror set, with the recomputation
    cost estimated as the sum of the nodes' kernel times — the helper every
    segment-style planner ({!checkpoint_sqrt}, the registry's [dp-bptt])
    shares. *)

val empty : selection
(** The no-op selection (the [stash-all] planner's plan). *)
