(* What a workload hands back to the command line in perfbench.ml. *)

type t = {
  setup_s : float;
  ops : Harness.ops;  (** the untraced timed ops *)
  footprint_bytes : float;
  footprint_reduction_x : float;
  sim_step_ms : float;
  sim_overhead_x : float;
  traced : Harness.ops option;  (** the traced timed ops, under [--trace 1] *)
  layer : Harness.metric list;
      (** per-layer metrics the workload observed; absent ones read 0 *)
  config : (string * string) list;
}
