open Echo_ir
module Assign = Echo_exec.Assign

(* Schedule positions and re-derived last-read steps (unfused), the same
   quantities Verify re-derives; the mutators use them to find a site where
   the corruption actually violates the property under test. *)
let positions graph =
  let tbl = Hashtbl.create 1024 in
  List.iteri (fun i n -> Hashtbl.replace tbl (Node.id n) i) (Graph.nodes graph);
  tbl

let last_read graph pos node def =
  if Graph.is_output graph (Node.id node) then max_int
  else
    List.fold_left
      (fun acc c ->
        match Hashtbl.find_opt pos (Node.id c) with
        | Some p -> max acc p
        | None -> acc)
      def
      (Graph.consumers graph (Node.id node))

let swap_schedule graph =
  let schedule = Graph.nodes graph in
  match List.find_opt (fun n -> Node.inputs n <> []) schedule with
  | None -> None
  | Some n ->
    Some (n :: List.filter (fun m -> not (Node.equal m n)) schedule)

let overlap_slots assignment =
  let slots = Array.of_list (Assign.slots assignment) in
  let concurrent a b =
    a.Assign.def_step <= b.Assign.last_step
    && b.Assign.def_step <= a.Assign.last_step
  in
  let found = ref None in
  Array.iteri
    (fun i a ->
      if !found = None then
        for j = i + 1 to Array.length slots - 1 do
          let b = slots.(j) in
          if
            !found = None && concurrent a b
            && not
                 (a.Assign.offset < b.Assign.offset + b.Assign.size
                 && b.Assign.offset < a.Assign.offset + a.Assign.size)
          then found := Some (a, b)
        done)
    slots;
  match !found with
  | None -> None
  | Some (a, b) ->
    let slots =
      List.map
        (fun s ->
          if s.Assign.node_id = b.Assign.node_id then
            { s with Assign.offset = a.Assign.offset }
          else s)
        (Assign.slots assignment)
    in
    Some (Assign.of_slots ~arena:(Assign.arena_size assignment) slots)

let escape_slot assignment =
  match Assign.slots assignment with
  | [] -> None
  | first :: rest ->
    let arena = Assign.arena_size assignment in
    Some
      (Assign.of_slots ~arena ({ first with Assign.offset = arena } :: rest))

let alias_binding graph binding =
  let pos = positions graph in
  let bid_of = Hashtbl.create 256 in
  List.iter (fun (n, bid) -> Hashtbl.replace bid_of (Node.id n) bid) binding;
  (* A victim defined strictly inside a donor's live range, on a different
     physical buffer: rebinding it aliases two simultaneously-live values. *)
  let site =
    List.find_opt
      (fun (donor, dbid) ->
        let d_def = Hashtbl.find pos (Node.id donor) in
        let d_last = last_read graph pos donor d_def in
        List.exists
          (fun (victim, vbid) ->
            vbid <> dbid
            &&
            let v_def = Hashtbl.find pos (Node.id victim) in
            v_def > d_def && v_def < d_last)
          binding)
      binding
  in
  match site with
  | None -> None
  | Some (donor, dbid) ->
    let d_def = Hashtbl.find pos (Node.id donor) in
    let d_last = last_read graph pos donor d_def in
    let victim, _ =
      List.find
        (fun (victim, vbid) ->
          vbid <> dbid
          &&
          let v_def = Hashtbl.find pos (Node.id victim) in
          v_def > d_def && v_def < d_last)
        binding
    in
    Some
      (List.map
         (fun (n, bid) ->
           if Node.equal n victim then (n, dbid) else (n, bid))
         binding)

let retarget_inplace graph binding =
  let pos = positions graph in
  let in_binding = Hashtbl.create 256 in
  List.iter (fun (n, bid) -> Hashtbl.replace in_binding (Node.id n) bid) binding;
  (* A consumer whose operator cannot write in place, reading an input that
     dies exactly at its step: handing it the input's buffer is precisely
     the corrupted transfer the in-place checker exists to reject. *)
  let site =
    List.find_opt
      (fun (taker, _) ->
        (not (Echo_exec.Memplan.inplace_capable taker))
        && List.exists
             (fun input ->
               Hashtbl.mem in_binding (Node.id input)
               &&
               let i_def = Hashtbl.find pos (Node.id input) in
               last_read graph pos input i_def
               = Hashtbl.find pos (Node.id taker))
             (Node.inputs taker))
      binding
  in
  match site with
  | None -> None
  | Some (taker, _) ->
    let donor =
      List.find
        (fun input ->
          Hashtbl.mem in_binding (Node.id input)
          &&
          let i_def = Hashtbl.find pos (Node.id input) in
          last_read graph pos input i_def = Hashtbl.find pos (Node.id taker))
        (Node.inputs taker)
    in
    let donor_bid = Hashtbl.find in_binding (Node.id donor) in
    Some
      (List.map
         (fun (n, bid) -> if Node.equal n taker then (n, donor_bid) else (n, bid))
         binding)

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
   (through Race's [?chunk_bounds]/[?intervals]/[?layout] injection
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

(* Expire one read-after-def buffer at its definition step: the pool may
   recycle it under the pending read. The corrupted intervals go to
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

(* A corrupted arena layout: place one buffer on top of another whose
   tenant is live across the victim's definition, so two simultaneously
   live values share addresses. Plugs into [Race.check_addresses
   ?layout]. *)
let alias_offsets graph binding =
  let pos = positions graph in
  let overlap_pair =
    List.find_map
      (fun (donor, dbid) ->
        let d_def = Hashtbl.find pos (Node.id donor) in
        let d_last = last_read graph pos donor d_def in
        List.find_map
          (fun (victim, vbid) ->
            if vbid = dbid then None
            else
              let v_def = Hashtbl.find pos (Node.id victim) in
              if v_def > d_def && v_def < d_last then Some (dbid, vbid)
              else None)
          binding)
      binding
  in
  match overlap_pair with
  | None -> None
  | Some (dbid, vbid) ->
    (* The honest end-to-end layout, with the victim's base rebased onto
       the donor's. *)
    let size_of = Hashtbl.create 64 in
    List.iter
      (fun (n, bid) ->
        let sz = Echo_tensor.Shape.numel (Node.shape n) in
        let cur = try Hashtbl.find size_of bid with Not_found -> 0 in
        if sz > cur then Hashtbl.replace size_of bid sz)
      binding;
    let bids = List.sort_uniq compare (List.map snd binding) in
    let base = ref 0 in
    let layout =
      List.map
        (fun bid ->
          let b = !base in
          base := !base + (try Hashtbl.find size_of bid with Not_found -> 0);
          (bid, b))
        bids
    in
    let donor_base = List.assoc dbid layout in
    Some
      (List.map
         (fun (bid, b) -> if bid = vbid then (bid, donor_base) else (bid, b))
         layout)

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
