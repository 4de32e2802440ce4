(** Footprint arithmetic on top of the memory planner: optimizer state and
    human-readable reporting. *)

type optimizer = Sgd | Momentum | Adam

val state_multiplier : optimizer -> int
(** Persistent per-parameter state tensors the optimizer keeps: SGD 0,
    momentum 1, Adam 2. *)

val total_bytes : Memplan.report -> optimizer:optimizer -> int
(** Static-planner peak footprint ([live_peak]) plus optimizer state. *)

val human : int -> string
(** "512.0 MiB", "3.2 GiB", ... *)

val pp_breakdown : Format.formatter -> Memplan.report -> unit
(** One line per category at the live-peak step. *)
