open Echo_tensor

type config = { iters : int; restarts : int; seed : int }

let default = { iters = 400; restarts = 4; seed = 0x0a11a }

(* Placement is the inner loop: for each slot, in the candidate order, scan
   the already-placed slots whose lifetimes intersect and take the lowest
   offset gap that fits. Exact (no two live-overlapping slots can end up
   overlapping) and order-sensitive — the search is over orders only. *)

type item = { idx : int; size : int; def : int; last : int }

let concurrent a b = a.def <= b.last && b.def <= a.last

let place items order offs =
  (* [placed] holds indices into [items] in placement order. *)
  let n = Array.length order in
  let placed = Array.make n 0 in
  let arena = ref 0 in
  for p = 0 to n - 1 do
    let i = order.(p) in
    let it = items.(i) in
    (* Conflicting placed intervals, as (offset, size) pairs. *)
    let conflicts = ref [] in
    for q = 0 to p - 1 do
      let j = placed.(q) in
      if concurrent it items.(j) then
        conflicts := (offs.(j), items.(j).size) :: !conflicts
    done;
    let sorted =
      List.sort (fun (a, _) (b, _) -> compare a b) !conflicts
    in
    let rec scan cur = function
      | [] -> cur
      | (o, sz) :: rest ->
        if o >= cur + it.size then cur else scan (max cur (o + sz)) rest
    in
    let off = scan 0 sorted in
    offs.(i) <- off;
    arena := max !arena (off + it.size);
    placed.(p) <- i
  done;
  !arena

let swap a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Deterministic seed orders. Durations are clamped (outputs carry
   [last_step = max_int]) so the area key stays finite. *)
let seed_orders items n_steps =
  let n = Array.length items in
  let order_by key =
    let o = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare (key items.(b)) (key items.(a)) in
        if c <> 0 then c else compare items.(a).def items.(b).def)
      o;
    o
  in
  let dur it = min it.last n_steps - it.def + 1 in
  [
    order_by (fun it -> (it.size, 0));
    order_by (fun it -> (dur it, it.size));
    order_by (fun it -> (it.size * dur it, it.size));
    Array.init n (fun i -> i) (* schedule order, lowest-offset placement *);
  ]

let solve ?(config = default) graph =
  let greedy = Assign.of_plan graph (Memplan.plan graph) in
  let slots = Array.of_list (Assign.slots greedy) in
  let n = Array.length slots in
  if n <= 2 then greedy
  else begin
    let items =
      Array.mapi
        (fun i s ->
          {
            idx = i;
            size = s.Assign.size;
            def = s.Assign.def_step;
            last = s.Assign.last_step;
          })
        slots
    in
    let n_steps =
      Array.fold_left (fun acc it -> max acc it.def) 0 items + 1
    in
    (* Each placement pass is O(n^2); bound the total pairwise work so the
       solver stays tractable on the full-size zoo graphs while the small
       test graphs get the full annealing budget. *)
    let iters =
      max 8 (min config.iters (60_000_000 / max 1 (n * n)))
    in
    let offs = Array.make n 0 in
    let best_offs = Array.make n 0 in
    let best = ref max_int in
    let best_order = ref [||] in
    let consider order =
      let a = place items order offs in
      if a < !best then begin
        best := a;
        best_order := Array.copy order;
        Array.blit offs 0 best_offs 0 n
      end;
      a
    in
    List.iter (fun o -> ignore (consider o)) (seed_orders items n_steps);
    let rng = Rng.create config.seed in
    let temp0 = 0.02 *. float_of_int !best in
    for _restart = 1 to config.restarts do
      let order = Array.copy !best_order in
      (* Perturb the restart's starting point so the runs diverge. *)
      for _ = 1 to n / 8 do
        swap order (Rng.int rng n) (Rng.int rng n)
      done;
      let cur = ref (consider order) in
      for it = 0 to iters - 1 do
        let i = Rng.int rng n and j = Rng.int rng n in
        if i <> j then begin
          swap order i j;
          let a = consider order in
          let temp =
            temp0 *. (1.0 -. (float_of_int it /. float_of_int iters))
          in
          let accept =
            a <= !cur
            || Rng.float rng
               < exp (-.float_of_int (a - !cur) /. (temp +. 1e-9))
          in
          if accept then cur := a else swap order i j
        end
      done
    done;
    if !best >= Assign.arena_size greedy then greedy
    else begin
      let out =
        Array.mapi
          (fun i s -> { s with Assign.offset = best_offs.(i) })
          slots
      in
      Array.sort (fun a b -> compare a.Assign.def_step b.Assign.def_step) out;
      let t = Assign.of_slots ~arena:!best (Array.to_list out) in
      Assign.validate t;
      t
    end
  end

let improvement ~greedy ~solved =
  let g = Assign.arena_size greedy and s = Assign.arena_size solved in
  if g <= 0 then 0.0 else float_of_int (g - s) /. float_of_int g
