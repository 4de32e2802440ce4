(** Slab ranges that are live at the same time and share bytes.

    Entry [i] is a range of [size.(i)] bytes at [offset.(i)] in the slab,
    live from step [def.(i)] through step [last.(i)] inclusive
    ([def.(i) <= last.(i)], [def.(i)] in [0, steps); [last.(i)] may be
    [max_int]). {!Verify.check_ranges} and {!Race.check_addresses} each
    derive the entries from the graph themselves and judge the pairs by
    their own rules. *)

val live_pairs :
  steps:int ->
  def:int array ->
  last:int array ->
  offset:int array ->
  size:int array ->
  keep:(int -> int -> bool) ->
  (int * int) list
(** Every pair [(a, b)] of entries live at a common step whose ranges
    overlap and that [keep] accepts, in the order a scan over the entries
    sorted by offset ([Array.sort], ties as it leaves them) meets them: by
    the rank of [a] in that order, then of [b]. [a] ranks below [b], and a
    pair counts when [offset.(b) < offset.(a) + size.(a)]. [keep] is asked
    once per candidate pair, in either orientation, so it must not depend
    on which entry comes first; a checker passes "this pair yields a
    finding", and a sound layout's pairs (its in-place handovers) are then
    never sorted.

    One sweep over the schedule finds the pairs: its cost grows with the
    entries and the pairs, not with how often an address is reused. *)
