(** Recovery observability: every action the fault-tolerant training runtime
    takes — re-planning after a budget violation, retrying a transient
    kernel failure, skipping a poisoned step, writing or loading a
    checkpoint — is surfaced as one of these events through the
    [?on_event] callback of [Echo_train.Loop.train].

    Payloads are structured (typed {!Fault.kind}, retry counts) so
    consumers — the campaign classifier in [Echo_campaign.Campaign], log
    shippers, dashboards — never parse strings. *)

type t =
  | Budget_hit of { step : int; requested_bytes : int; budget_bytes : int }
      (** Execution needed [requested_bytes] but the (possibly
          fault-shrunk) device budget allows only [budget_bytes]. *)
  | Replan of {
      step : int;
      planner : string;  (** surviving planner, [Echo_core.Planner.label] *)
      footprint_bytes : int;  (** footprint of the re-compiled executor *)
      budget_bytes : int;
    }
      (** The runtime escalated through the recomputation ladder and
          re-compiled at the cheapest planner that fits. *)
  | Fault_injected of { step : int; fault : Fault.kind; target : string }
      (** A scheduled bit-flip was applied. [target] names the tensor hit
          (parameter name or activation-site node name) — the differential
          suite uses it to prove the same spec hits the same site under
          every planner and domain count. Observability only: classifiers
          must not count it as a {e detection}, see {!is_detection}. *)
  | Retry of { step : int; attempt : int; fault : Fault.kind }
      (** A transient kernel failure; the step is being re-executed.
          [attempt] counts from 1. *)
  | Skip of { step : int; retries : int; fault : Fault.kind }
      (** Retries exhausted after [retries] re-executions; the step was
          dropped (no parameter update, no recorded loss). [fault] is the
          failure that was still firing. *)
  | Nan_guard of { step : int; loss : float; grad_norm : float }
      (** Non-finite loss or gradient norm; the update was skipped. *)
  | Checkpoint_write of { step : int; path : string }
  | Checkpoint_load of { step : int; path : string }

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val is_detection : t -> bool
(** True for events that mean the runtime {e noticed and reacted to} a
    fault (budget hit, replan, retry, skip, NaN guard) — the signal the
    campaign classifier separates [Detected_recovered] from silent
    corruption with. False for pure observability ([Fault_injected]) and
    checkpoint traffic. *)
