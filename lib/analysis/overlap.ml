(* Pairs of slab ranges that are live at the same time and share bytes,
   found by one sweep over the schedule instead of a scan over every pair
   that shares an address. The live set is ordered by offset in a tree
   that keeps the furthest range end below each node, so a new range's
   query climbs to the nearest range that starts below its end and reaches
   past its start, and to the next one from there: in a sound layout
   there is none but an in-place donor. *)

let int_order a b = if a < b then -1 else if a > b then 1 else 0

let live_pairs ~steps ~def ~last ~offset ~size ~keep =
  let n = Array.length def in
  (* The sweep's offset order; ties in any order. *)
  let by_offset = Array.init n Fun.id in
  Array.stable_sort (fun a b -> int_order offset.(a) offset.(b)) by_offset;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_offset;
  (* A zero-size range still occupies its start for the scan's predicate
     (below), so the sweep treats it as one byte wide. *)
  let reach i = offset.(i) + max 1 size.(i) in
  (* Entries bucketed by definition step and by last read. *)
  let bucket key =
    let start = Array.make (steps + 1) 0 in
    for i = 0 to n - 1 do
      let k = key.(i) in
      if k >= 0 && k < steps then start.(k + 1) <- start.(k + 1) + 1
    done;
    for k = 0 to steps - 1 do
      start.(k + 1) <- start.(k) + start.(k + 1)
    done;
    let items = Array.make start.(steps) 0 and fill = Array.sub start 0 steps in
    for i = 0 to n - 1 do
      let k = key.(i) in
      if k >= 0 && k < steps then begin
        items.(fill.(k)) <- i;
        fill.(k) <- fill.(k) + 1
      end
    done;
    (start, items)
  in
  let def_start, defined = bucket def in
  let last_start, dying = bucket last in
  (* The live set: a max tree over ranks whose leaf [r] holds the reach of
     the live entry of rank [r], [min_int] when it is not live. More
     leaves than entries keep every query's bound inside the tree. *)
  let leaves = ref 1 in
  while !leaves <= n do
    leaves := 2 * !leaves
  done;
  let leaves = !leaves in
  let tree = Array.make (2 * leaves) min_int in
  let set r v =
    let k = ref (leaves + r) in
    tree.(!k) <- v;
    let settled = ref false in
    while (not !settled) && !k > 1 do
      k := !k / 2;
      let m = max tree.(2 * !k) tree.((2 * !k) + 1) in
      if tree.(!k) = m then settled := true else tree.(!k) <- m
    done
  in
  (* The highest live rank below [bound] whose range reaches past
     [start], or -1: climb from the bound while the subtrees passed over
     reach no further, then descend the first one that does. *)
  let previous bound start =
    let l = ref leaves and r = ref (leaves + bound) and hit = ref (-1) in
    while !hit < 0 && !l < !r do
      if !r land 1 = 1 then begin
        decr r;
        if tree.(!r) > start then hit := !r
      end;
      l := !l / 2;
      r := !r / 2
    done;
    if !hit < 0 then -1
    else begin
      let k = ref !hit in
      while !k < leaves do
        k := if tree.((2 * !k) + 1) > start then (2 * !k) + 1 else 2 * !k
      done;
      !k - leaves
    end
  in
  let sorted_offset = Array.map (fun i -> offset.(i)) by_offset in
  (* The number of entries starting below [x]. *)
  let starting_below x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted_offset.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let found = ref [] in
  (* Every live range starting below the end of [i]'s and reaching past
     its start, from the highest rank down. *)
  let query i =
    let r = ref (previous (starting_below (reach i)) offset.(i)) in
    while !r >= 0 do
      let j = by_offset.(!r) in
      if keep i j then found := (i, j) :: !found;
      r := previous !r offset.(i)
    done
  in
  for t = 0 to steps - 1 do
    for d = def_start.(t) to def_start.(t + 1) - 1 do
      let i = defined.(d) in
      query i;
      set rank.(i) (reach i)
    done;
    for d = last_start.(t) to last_start.(t + 1) - 1 do
      set rank.(dying.(d)) min_int
    done
  done;
  match !found with
  | [] -> []
  | found ->
    (* Orient and order the kept pairs the way a scan over the entries
       sorted by [Array.sort] meets them: its order of ties is the one the
       reports have always followed. *)
    let scan = Array.init n Fun.id in
    Array.sort (fun a b -> int_order offset.(a) offset.(b)) scan;
    Array.iteri (fun r i -> rank.(i) <- r) scan;
    let pairs =
      List.filter_map
        (fun (i, j) ->
          let a, b = if rank.(i) < rank.(j) then (i, j) else (j, i) in
          (* The scan's predicate: [b] starts below the end of [a]. *)
          if offset.(b) < offset.(a) + size.(a) then Some (a, b) else None)
        found
    in
    List.sort
      (fun (a1, b1) (a2, b2) ->
        let c = int_order rank.(a1) rank.(a2) in
        if c <> 0 then c else int_order rank.(b1) rank.(b2))
      pairs
