open Echo_ir
module Memplan = Echo_exec.Memplan

(* The slots a plan places, in schedule order. *)
let placed (r : Memplan.report) =
  List.filter
    (fun s -> r.Memplan.offset_of_slot.(s) >= 0)
    (List.init (Array.length r.Memplan.offset_of_slot) Fun.id)

(* [r] with the given slots moved to the given offsets. *)
let moved (r : Memplan.report) moves =
  let offset_of_slot = Array.copy r.Memplan.offset_of_slot in
  List.iter (fun (s, off) -> offset_of_slot.(s) <- off) moves;
  { r with Memplan.offset_of_slot }

let swap_schedule graph =
  let schedule = Graph.nodes graph in
  match List.find_opt (fun n -> Node.inputs n <> []) schedule with
  | None -> None
  | Some n ->
    Some (n :: List.filter (fun m -> not (Node.equal m n)) schedule)

let overlap_slots graph (r : Memplan.report) =
  let off = r.Memplan.offset_of_slot and expiry = r.Memplan.expiry_of_slot in
  let slots = placed r in
  (* A victim defined strictly inside a donor's live range, moved onto the
     donor's offset: the two are live at the same time and neither is the
     other's in-place handover, so only the alias check can accept or
     reject it. *)
  let inside a b =
    a < b && b < expiry.(a)
    && off.(a) + Node.size_bytes (Graph.node_at graph b) <= r.Memplan.slab_bytes
  in
  List.find_map
    (fun a ->
      List.find_map
        (fun b -> if inside a b then Some (moved r [ (b, off.(a)) ]) else None)
        slots)
    slots

let escape_slot (r : Memplan.report) =
  match placed r with
  | [] -> None
  | first :: _ -> Some (moved r [ (first, r.Memplan.slab_bytes) ])

let retarget_inplace graph (r : Memplan.report) =
  let off = r.Memplan.offset_of_slot in
  (* The unfused last read of a slot, re-derived from its consumer edges. *)
  let last_read s =
    if Graph.is_output_at graph s then max_int
    else Graph.fold_consumers_at graph s max s
  in
  (* A consumer whose operator cannot write in place, reading an input
     that dies exactly at its step: handing it the input's offset is
     precisely the corrupted transfer the in-place checker exists to
     reject. *)
  let donor_of taker t =
    List.find_map
      (fun input ->
        match Graph.position graph (Node.id input) with
        | d when off.(d) >= 0 && last_read d = t -> Some d
        | _ -> None
        | exception Not_found -> None)
      (Node.inputs taker)
  in
  List.find_map
    (fun t ->
      let taker = Graph.node_at graph t in
      if Memplan.inplace_capable taker then None
      else
        Option.map (fun d -> moved r [ (t, off.(d)) ]) (donor_of taker t))
    (placed r)

(* Rebuild the graph with [replace] applied to matching nodes and every
   transitive consumer re-cloned onto the fresh inputs. *)
let rebuild graph ~replace =
  let rebuilt : (int, Node.t) Hashtbl.t = Hashtbl.create 1024 in
  let resolve u =
    match Hashtbl.find_opt rebuilt (Node.id u) with Some r -> r | None -> u
  in
  List.iter
    (fun n ->
      match replace n with
      | Some fresh -> Hashtbl.replace rebuilt (Node.id n) fresh
      | None ->
        let inputs = List.map resolve (Node.inputs n) in
        if
          not (List.for_all2 (fun a b -> Node.equal a b) (Node.inputs n) inputs)
        then Hashtbl.replace rebuilt (Node.id n) (Node.clone_with_inputs n inputs))
    (Graph.nodes graph);
  Graph.create (List.map resolve (Graph.outputs graph))

let reseed_clone graph =
  let target =
    List.find_opt
      (fun n ->
        Echo_core.Rewrite.is_clone n
        && match Node.op n with Op.DropoutMask _ -> true | _ -> false)
      (Graph.nodes graph)
  in
  match target with
  | None -> None
  | Some t ->
    let p, seed =
      match Node.op t with
      | Op.DropoutMask { p; seed } -> (p, seed)
      | _ -> assert false
    in
    let fresh =
      Node.create ~name:(Node.name t) ~region:(Node.region t)
        ~shape:(Node.shape t) ~hint:(Node.hint t)
        (Op.DropoutMask { p; seed = seed + 1 })
        []
    in
    Some
      (rebuild graph ~replace:(fun n ->
           if Node.equal n t then Some fresh else None))

let bad_clone_hint graph =
  let target =
    List.find_opt
      (fun n ->
        Echo_core.Rewrite.is_clone n && Graph.consumers graph (Node.id n) <> [])
      (Graph.nodes graph)
  in
  match target with
  | None -> None
  | Some t ->
    let earliest =
      List.fold_left
        (fun acc c -> Float.min acc (Node.hint c))
        infinity
        (Graph.consumers graph (Node.id t))
    in
    let fresh =
      Node.clone_with_inputs ~hint:(earliest +. 1.0) t (Node.inputs t)
    in
    Some
      (rebuild graph ~replace:(fun n ->
           if Node.equal n t then Some fresh else None))

(* ------------------------------------------------------------------ *)
(* Race-verify corruptions: each targets exactly one of the Race /
   Sanitize checkers, and the harness proves it fires both statically
   (through Race's [?chunk_bounds]/[?intervals]/[?plan] injection
   points) and dynamically (through an executor compiled from a corrupted
   [Memplan] plan, or a directly-driven [Sanitize]).                  *)
(* ------------------------------------------------------------------ *)

(* A corrupted chunk formula: every interior boundary is shifted one row,
   so adjacent chunks either both write the boundary row ([`Overlap]) or
   neither does ([`Gap]). Plugs into [Race.check_kernels ?chunk_bounds]. *)
let shift_partition kind n parts i =
  let lo = i * n / parts and hi = (i + 1) * n / parts in
  if i = 0 then (lo, hi)
  else
    match kind with
    | `Overlap -> (max 0 (lo - 1), hi)
    | `Gap -> (min hi (lo + 1), hi)

(* Expire one read-after-def value at its definition step: the slab may
   reuse its range under the pending read. The corrupted intervals go to
   [Race.check_lifetimes ?intervals] statically and, through
   [Liveness.of_intervals], [Memplan.plan ~liveness] and
   [Executor.compile ~plan], to a real executor whose sanitizer must catch
   the stale read dynamically. *)
let shrink_lifetime its =
  let module L = Echo_exec.Liveness in
  match
    List.find_opt
      (fun itv ->
        itv.L.last_step <> max_int && itv.L.last_step > itv.L.def_step)
      its
  with
  | None -> None
  | Some victim ->
    Some
      (List.map
         (fun itv ->
           if Node.equal itv.L.node victim.L.node then
             { itv with L.last_step = itv.L.def_step }
           else itv)
         its)

(* Move one value's range to start one element inside another value's
   range that is live across its definition and read after it, keeping it
   inside the slab: the two overlap in part, so neither a check for
   shared offsets nor one for shared ranges sees it. The corrupted plan
   goes to Verify's range
   checker and Race's address checker statically, and through
   [Executor.compile ~plan] to a real executor whose sanitizer must see
   the victim's cells overwritten. *)
let overlap_partially graph (r : Memplan.report) =
  let off = r.Memplan.offset_of_slot and expiry = r.Memplan.expiry_of_slot in
  let size s = Node.size_bytes (Graph.node_at graph s) in
  let slots = placed r in
  List.find_map
    (fun b ->
      List.find_map
        (fun a ->
          let start = off.(a) + Node.elem_bytes in
          if
            a < b && b < expiry.(a)
            && size a >= 2 * Node.elem_bytes
            && start + size b <= r.Memplan.slab_bytes
          then Some (moved r [ (b, start) ])
          else None)
        slots)
    slots

(* Swap one single-input interior of a fused group for a clone one row
   wider than the root's sweep: the member-at-a-time semantics the fused
   kernel replaces would write outside the partition. Plugs into
   [Race.check_fused]. *)
let widen_fused_interior plan =
  let widen shape =
    if Echo_tensor.Shape.rank shape = 0 then [| 2 |]
    else begin
      let c = Array.copy shape in
      c.(0) <- c.(0) + 1;
      c
    end
  in
  let try_group g =
    let root = g.Fuse.root in
    match
      List.find_opt
        (fun m -> (not (Node.equal m root)) && List.length (Node.inputs m) = 1)
        g.Fuse.members
    with
    | None -> None
    | Some m ->
      let wide_leaf =
        Node.create
          ~name:(Node.name m ^ "/widened")
          ~region:(Node.region m)
          ~shape:(widen (Node.shape m))
          Op.Placeholder []
      in
      let fresh = Node.clone_with_inputs m [ wide_leaf ] in
      Some
        {
          g with
          Fuse.members =
            List.map
              (fun x -> if Node.equal x m then fresh else x)
              g.Fuse.members;
        }
  in
  let rec first = function
    | [] -> None
    | g :: rest -> (
      match try_group g with Some g' -> Some g' | None -> first rest)
  in
  match first (Fuse.groups plan) with
  | None -> None
  | Some g' -> Some (Fuse.of_groups [ g' ])

let cross_region_group graph =
  let site =
    List.find_opt
      (fun m ->
        Node.region m = Node.Backward
        && Fuse.elementwise m
        && List.exists
             (fun a ->
               Node.region a = Node.Forward
               && Fuse.elementwise a
               && Echo_tensor.Shape.equal (Node.shape a) (Node.shape m))
             (Node.inputs m))
      (Graph.nodes graph)
  in
  match site with
  | None -> None
  | Some m ->
    let a =
      List.find
        (fun a ->
          Node.region a = Node.Forward
          && Fuse.elementwise a
          && Echo_tensor.Shape.equal (Node.shape a) (Node.shape m))
        (Node.inputs m)
    in
    let externals =
      Node.inputs a
      @ List.filter (fun i -> not (Node.equal i a)) (Node.inputs m)
    in
    Some (Fuse.of_groups [ { Fuse.members = [ a; m ]; root = m; externals } ])
