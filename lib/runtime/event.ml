type t =
  | Budget_hit of { step : int; requested_bytes : int; budget_bytes : int }
  | Replan of {
      step : int;
      planner : string;
      footprint_bytes : int;
      budget_bytes : int;
    }
  | Fault_injected of { step : int; fault : Fault.kind; target : string }
  | Retry of { step : int; attempt : int; fault : Fault.kind }
  | Skip of { step : int; retries : int; fault : Fault.kind }
  | Nan_guard of { step : int; loss : float; grad_norm : float }
  | Checkpoint_write of { step : int; path : string }
  | Checkpoint_load of { step : int; path : string }

let fault_reason = function
  | Fault.Transient why -> why
  | k -> Fault.kind_to_string 0 k

let to_string = function
  | Budget_hit { step; requested_bytes; budget_bytes } ->
    Printf.sprintf "step %d: budget hit (%d bytes needed, %d allowed)" step
      requested_bytes budget_bytes
  | Replan { step; planner; footprint_bytes; budget_bytes } ->
    Printf.sprintf "step %d: replanned to %s (%d bytes under a %d-byte budget)"
      step planner footprint_bytes budget_bytes
  | Fault_injected { step; fault; target } ->
    Printf.sprintf "step %d: injected %s into %s" step
      (Fault.kind_to_string step fault)
      target
  | Retry { step; attempt; fault } ->
    Printf.sprintf "step %d: retry %d after transient failure (%s)" step attempt
      (fault_reason fault)
  | Skip { step; retries; fault } ->
    Printf.sprintf "step %d: skipped (%s still failing after %d retries)" step
      (fault_reason fault) retries
  | Nan_guard { step; loss; grad_norm } ->
    Printf.sprintf "step %d: non-finite guard (loss %g, grad norm %g); update \
                    skipped"
      step loss grad_norm
  | Checkpoint_write { step; path } ->
    Printf.sprintf "step %d: checkpoint written to %s" step path
  | Checkpoint_load { step; path } ->
    Printf.sprintf "step %d: resumed from checkpoint %s" step path

let pp fmt e = Format.pp_print_string fmt (to_string e)

let is_detection = function
  | Budget_hit _ | Replan _ | Retry _ | Skip _ | Nan_guard _ -> true
  | Fault_injected _ | Checkpoint_write _ | Checkpoint_load _ -> false
