type optimizer = Sgd | Momentum | Adam

let state_multiplier = function Sgd -> 0 | Momentum -> 1 | Adam -> 2

let total_bytes (r : Memplan.report) ~optimizer =
  r.live_peak_bytes + (state_multiplier optimizer * r.weight_bytes)

let human bytes =
  let b = float_of_int bytes in
  if b >= 1024.0 ** 3.0 then Printf.sprintf "%.2f GiB" (b /. (1024.0 ** 3.0))
  else if b >= 1024.0 ** 2.0 then Printf.sprintf "%.1f MiB" (b /. (1024.0 ** 2.0))
  else if b >= 1024.0 then Printf.sprintf "%.1f KiB" (b /. 1024.0)
  else Printf.sprintf "%d B" bytes

let pp_breakdown fmt (r : Memplan.report) =
  List.iter
    (fun (cat, bytes) ->
      Format.fprintf fmt "  %-16s %12s@\n" (Category.to_string cat) (human bytes))
    r.breakdown
