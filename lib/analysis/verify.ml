open Echo_ir
module Memplan = Echo_exec.Memplan
module Report = Echo_diag.Report

exception Verify_failed of Echo_diag.Report.t

let check_exn report = if Report.has_errors report then raise (Verify_failed report)

let env_enabled () =
  match Sys.getenv_opt "ECHO_VERIFY" with
  | Some ("1" | "on" | "true" | "yes") -> true
  | Some _ | None -> false

(* The operator classifications below deliberately duplicate
   Liveness.is_persistent, Fuse.elementwise and Memplan.inplace_capable
   instead of calling them: the checkers certify those modules' output, so
   sharing their predicates would make every check a tautology. A new
   operator must be classified here too — the exhaustive matches make the
   compiler insist. *)

let persistent_op op =
  match op with
  | Op.Placeholder | Op.Variable -> true
  | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _ | Op.Neg | Op.Scale _
  | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh | Op.Relu | Op.Exp
  | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add | Op.Sub | Op.Mul
  | Op.Div | Op.Matmul _ | Op.AddBias | Op.ScaleBy | Op.Slice _ | Op.PadSlice _
  | Op.Concat _ | Op.Reshape _ | Op.Transpose2d | Op.ReduceSum _
  | Op.ReduceMean _ | Op.BroadcastAxis _ | Op.Softmax | Op.LogSoftmax
  | Op.CrossEntropy | Op.CrossEntropyGrad | Op.Embedding | Op.EmbeddingGrad _
  | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let elementwise_op op =
  match op with
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.ScaleBy ->
    true
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _
  | Op.Matmul _ | Op.AddBias | Op.Slice _ | Op.PadSlice _ | Op.Concat _
  | Op.Reshape _ | Op.Transpose2d | Op.ReduceSum _ | Op.ReduceMean _
  | Op.BroadcastAxis _ | Op.Softmax | Op.LogSoftmax | Op.CrossEntropy
  | Op.CrossEntropyGrad | Op.Embedding | Op.EmbeddingGrad _ | Op.Conv2d _
  | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let inplace_capable_op op =
  match op with
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid | Op.Tanh
  | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip | Op.Sign | Op.Add
  | Op.Sub | Op.Mul | Op.Div | Op.AddBias | Op.ScaleBy | Op.Softmax
  | Op.LogSoftmax | Op.CrossEntropyGrad ->
    true
  | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _
  | Op.Matmul _ | Op.Slice _ | Op.PadSlice _ | Op.Concat _ | Op.Reshape _
  | Op.Transpose2d | Op.ReduceSum _ | Op.ReduceMean _ | Op.BroadcastAxis _
  | Op.CrossEntropy | Op.Embedding | Op.EmbeddingGrad _ | Op.Conv2d _
  | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    false

let describe n =
  Printf.sprintf "%s %s (#%d)" (Op.to_string (Node.op n)) (Node.name n)
    (Node.id n)

(* Fusion structure re-derived from the raw group list (not from the plan's
   own index tables), by schedule slot: the slot whose instruction does a
   slot's reads (its group root's for a member, -1 when that root is not
   in the graph, the slot itself otherwise), the interiors, and each
   root's recorded externals. *)
let fusion_index graph fusion =
  let n = Graph.node_count graph in
  let reader = Array.init n Fun.id and interior = Array.make n false in
  let externals_of_root = Array.make n None in
  let slot node = Graph.position graph (Node.id node) in
  (match fusion with
  | None -> ()
  | Some f ->
    List.iter
      (fun g ->
        let root = try slot g.Fuse.root with Not_found -> -1 in
        if root >= 0 then externals_of_root.(root) <- Some g.Fuse.externals;
        List.iter
          (fun m ->
            match slot m with
            | s ->
              reader.(s) <- root;
              if Node.id m <> Node.id g.Fuse.root then interior.(s) <- true
            | exception Not_found -> ())
          g.Fuse.members)
      (Fuse.groups f));
  (reader, interior, externals_of_root)

(* Last step at which each slot's buffer is read, re-derived from consumer
   edges: [max_int] for graph outputs (they survive the step), and under
   fusion a group member's reads happen at its root's instruction. *)
let derive_last graph reader =
  Array.init (Graph.node_count graph) (fun s ->
      if Graph.is_output_at graph s then max_int
      else Graph.fold_consumers_at graph s (fun acc c -> max acc reader.(c)) s)

(* -------------------------------------------------------------------- *)

let check_schedule ?schedule graph =
  let schedule = match schedule with Some s -> s | None -> Graph.nodes graph in
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"schedule" ~stage:"graph" ~nodes fmt
  in
  let count = List.length schedule in
  if count <> Graph.node_count graph then
    err ~nodes:[]
      "schedule has %d slot(s) but the graph has %d node(s)" count
      (Graph.node_count graph);
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen (Node.id n) then
        err ~nodes:[ Node.id n ] "duplicate slot: %s is scheduled twice"
          (describe n);
      List.iter
        (fun i ->
          if not (Hashtbl.mem seen (Node.id i)) then
            err
              ~nodes:[ Node.id n; Node.id i ]
              "%s is scheduled before its input %s" (describe n) (describe i))
        (Node.inputs n);
      Hashtbl.add seen (Node.id n) ())
    schedule;
  List.iter
    (fun o ->
      if not (Hashtbl.mem seen (Node.id o)) then
        err ~nodes:[ Node.id o ] "output %s is missing from the schedule"
          (describe o))
    (Graph.outputs graph);
  (* Shape re-inference: the recorded shape of every node must fall out of
     its operator and input shapes again. *)
  List.iter
    (fun n ->
      let explicit =
        match Node.op n with
        | Op.Placeholder | Op.Variable | Op.Zeros | Op.ConstFill _
        | Op.DropoutMask _ ->
          Some (Node.shape n)
        | _ -> None
      in
      match
        Op.infer_shape (Node.op n)
          (List.map Node.shape (Node.inputs n))
          explicit
      with
      | inferred ->
        if not (Echo_tensor.Shape.equal inferred (Node.shape n)) then
          err ~nodes:[ Node.id n ]
            "%s records shape %s but shape inference yields %s" (describe n)
            (Echo_tensor.Shape.to_string (Node.shape n))
            (Echo_tensor.Shape.to_string inferred)
      | exception e ->
        err ~nodes:[ Node.id n ] "shape inference failed on %s: %s" (describe n)
          (Printexc.to_string e))
    schedule;
  report

let check_determinism graph =
  let report = Report.create () in
  List.iter
    (fun n ->
      if not (Op.is_pure (Node.op n)) then
        Report.errorf report ~check:"determinism" ~stage:"graph"
          ~nodes:[ Node.id n ]
          "%s is not pure: re-execution (recomputation, checkpoint replay) \
           is not bit-deterministic"
          (describe n))
    (Graph.nodes graph);
  (* Unrelated same-shape masks sharing a seed draw identical dropout
     patterns. A clone legitimately shares its original's seed (that is the
     whole point of seeded recomputation), so base-name pairs are exempt. *)
  let by_seed : (int, Node.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      match Node.op n with
      | Op.DropoutMask { seed; _ } ->
        let cur = try Hashtbl.find by_seed seed with Not_found -> [] in
        Hashtbl.replace by_seed seed (n :: cur)
      | _ -> ())
    (Graph.nodes graph);
  Hashtbl.iter
    (fun seed nodes ->
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              if
                Echo_core.Rewrite.base_name a <> Echo_core.Rewrite.base_name b
                && Echo_tensor.Shape.equal (Node.shape a) (Node.shape b)
              then
                Report.infof report ~check:"determinism" ~stage:"graph"
                  ~nodes:[ Node.id a; Node.id b ]
                  "unrelated DropoutMask nodes %s and %s share seed %d: their \
                   masks are identical"
                  (describe a) (describe b) seed)
            rest;
          pairs rest
      in
      pairs nodes)
    by_seed;
  report

let check_recompute graph =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"recompute" ~stage:"rewritten" ~nodes fmt
  in
  (* Forward originals by name; clones answer to base_name. *)
  let originals : (string, Node.t list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun n ->
      if not (Echo_core.Rewrite.is_clone n) then begin
        let cur = try Hashtbl.find originals (Node.name n) with Not_found -> [] in
        Hashtbl.replace originals (Node.name n) (n :: cur)
      end)
    (Graph.forward_nodes graph);
  List.iter
    (fun clone ->
      if Echo_core.Rewrite.is_clone clone then begin
        let id = Node.id clone in
        if Node.region clone <> Node.Backward then
          err ~nodes:[ id ]
            "recomputation clone %s lives in the forward region: it would \
             execute (and be stashed) alongside its original"
            (describe clone);
        (* Just-in-time: the clone's hint must not place it later than its
           earliest consumer wants it. Equality is legal (the no-sharing
           ablation gives a whole private chain one hint). *)
        (match Graph.consumers graph id with
        | [] -> ()
        | consumers ->
          let earliest =
            List.fold_left (fun acc c -> Float.min acc (Node.hint c)) infinity
              consumers
          in
          if Node.hint clone > earliest then
            err ~nodes:[ id ]
              "clone %s carries hint %g, later than its earliest consumer's \
               %g: recomputation is not just-in-time"
              (describe clone) (Node.hint clone) earliest);
        match
          Hashtbl.find_opt originals (Echo_core.Rewrite.base_name clone)
        with
        | None | Some [] ->
          Report.warnf report ~check:"recompute" ~stage:"rewritten"
            ~nodes:[ id ]
            "clone %s has no forward original named %s in the graph"
            (describe clone)
            (Echo_core.Rewrite.base_name clone)
        | Some candidates ->
          (* The clone must recompute the same value: same operator
             (including any DropoutMask seed), same shape, and inputs that
             are the original's inputs or their clones. Names repeat across
             unrolled timesteps (every LSTM step has a "tanh_c"), so the
             clone's original is whichever same-named forward node its
             inputs correspond to. *)
          let input_corresponds uc uo =
            Node.equal uc uo
            || Echo_core.Rewrite.is_clone uc
               && Echo_core.Rewrite.base_name uc = Node.name uo
          in
          let corresponds o =
            List.length (Node.inputs clone) = List.length (Node.inputs o)
            && List.for_all2 input_corresponds (Node.inputs clone)
                 (Node.inputs o)
          in
          let same_op =
            List.filter (fun o -> Node.op clone = Node.op o) candidates
          in
          (match same_op with
          | [] ->
            let orig = List.hd candidates in
            err ~nodes:[ id; Node.id orig ]
              "clone %s diverges from its original %s: op %s vs %s — \
               recomputation would produce a different value"
              (describe clone) (describe orig)
              (Op.to_string (Node.op clone))
              (Op.to_string (Node.op orig))
          | _ -> (
            match List.find_opt corresponds same_op with
            | Some orig ->
              if
                not
                  (Echo_tensor.Shape.equal (Node.shape clone)
                     (Node.shape orig))
              then
                err ~nodes:[ id; Node.id orig ]
                  "clone %s has shape %s but its original %s has shape %s"
                  (describe clone)
                  (Echo_tensor.Shape.to_string (Node.shape clone))
                  (describe orig)
                  (Echo_tensor.Shape.to_string (Node.shape orig))
            | None ->
              let orig = List.hd same_op in
              if
                List.length (Node.inputs clone)
                <> List.length (Node.inputs orig)
              then
                err ~nodes:[ id; Node.id orig ]
                  "clone %s reads %d input(s) where its original %s reads %d"
                  (describe clone)
                  (List.length (Node.inputs clone))
                  (describe orig)
                  (List.length (Node.inputs orig))
              else
                List.iter2
                  (fun uc uo ->
                    if not (input_corresponds uc uo) then
                      err
                        ~nodes:[ id; Node.id uc ]
                        "clone %s reads %s where its original reads %s — \
                         the recomputed value is not the original's"
                        (describe clone) (describe uc) (describe uo))
                  (Node.inputs clone) (Node.inputs orig)))
      end)
    (Graph.nodes graph);
  report

let check_fusion ?(max_externals = Fuse.default_max_externals) graph plan =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"fusion" ~stage:"fused" ~nodes fmt
  in
  let membership : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun g ->
      let members = g.Fuse.members in
      let root = g.Fuse.root in
      let ids = List.map Node.id members in
      (match members with
      | [] | [ _ ] ->
        err ~nodes:ids "fusion group has %d member(s); a group is a chain of \
                        at least two"
          (List.length members)
      | _ -> ());
      List.iter
        (fun m ->
          if Hashtbl.mem membership (Node.id m) then
            err ~nodes:[ Node.id m ]
              "%s belongs to two fusion groups: its buffer binding is \
               ambiguous"
              (describe m)
          else Hashtbl.replace membership (Node.id m) ();
          if not (Graph.mem graph (Node.id m)) then
            err ~nodes:[ Node.id m ] "fused member %s is not in the graph"
              (describe m);
          if not (elementwise_op (Node.op m)) then
            err ~nodes:[ Node.id m ]
              "%s is fused but %s is not an elementwise operator: it cannot \
               fold in registers"
              (describe m)
              (Op.to_string (Node.op m)))
        members;
      (match List.rev members with
      | actual_last :: _ when Node.id actual_last <> Node.id root ->
        err
          ~nodes:[ Node.id root; Node.id actual_last ]
          "group root %s is not the last chain member %s" (describe root)
          (describe actual_last)
      | _ -> ());
      (* Chain structure, shapes, regions, and interior containment. *)
      let rec walk = function
        | prev :: (m :: _ as rest) ->
          (match Node.inputs m with
          | first :: _ when Node.equal first prev -> ()
          | _ ->
            err
              ~nodes:[ Node.id m; Node.id prev ]
              "%s does not chain on %s as its first input: the fused kernel \
               would fold the wrong producer"
              (describe m) (describe prev));
          if not (Echo_tensor.Shape.equal (Node.shape m) (Node.shape prev))
          then
            err
              ~nodes:[ Node.id m; Node.id prev ]
              "fused members %s and %s differ in shape: one register sweep \
               cannot cover both"
              (describe m) (describe prev);
          if Node.region m <> Node.region prev then
            err
              ~nodes:[ Node.id m; Node.id prev ]
              "fusion group crosses the forward/backward boundary between %s \
               and %s: fusing would recompute across the region split the \
               planner accounts for"
              (describe prev) (describe m);
          (* [prev] is an interior here: it must feed only [m], and must
             not be a graph output (outputs materialise). *)
          if Graph.is_output graph (Node.id prev) then
            err ~nodes:[ Node.id prev ]
              "fused interior %s is a graph output but never materialises"
              (describe prev);
          (match Graph.consumers graph (Node.id prev) with
          | [ c ] when Node.equal c m -> ()
          | consumers ->
            err ~nodes:(Node.id prev :: List.map Node.id consumers)
              "fused interior %s has %d consumer(s); it must feed exactly \
               its chain successor %s, since its value exists only in the \
               fused kernel's registers"
              (describe prev) (List.length consumers) (describe m));
          walk rest
        | [] | [ _ ] -> ()
      in
      walk members;
      (* Externals: what the fused kernel actually reads is the head's
         inputs plus every later member's non-chain inputs. *)
      (match members with
      | head :: _ ->
        let expected =
          List.concat_map
            (fun m ->
              if Node.equal m head then Node.inputs m
              else match Node.inputs m with [] -> [] | _ :: rest -> rest)
            members
        in
        let ids_of l = List.map Node.id l in
        if ids_of expected <> ids_of g.Fuse.externals then
          err ~nodes:ids
            "group rooted at %s records externals [%s] but its members read \
             [%s]: liveness extension would miss a buffer the kernel reads"
            (describe root)
            (String.concat ", "
               (List.map string_of_int (ids_of g.Fuse.externals)))
            (String.concat ", " (List.map string_of_int (ids_of expected)));
        if List.length g.Fuse.externals > max_externals then
          err ~nodes:ids
            "group rooted at %s reads %d external buffer(s), over the budget \
             of %d: fusing would pin them all live until the root and grow \
             the arena"
            (describe root)
            (List.length g.Fuse.externals)
            max_externals
      | [] -> ()))
    (Fuse.groups plan);
  report

let check_ranges graph (plan : Memplan.report) =
  let report = Report.create () in
  let err ~check ~nodes fmt =
    Report.errorf report ~check ~stage:"planned" ~nodes fmt
  in
  let n = Graph.node_count graph in
  let offset = plan.Memplan.offset_of_slot
  and expiry = plan.Memplan.expiry_of_slot in
  if Array.length offset <> n || Array.length expiry <> n then
    invalid_arg "Verify.check_ranges: the plan is for another graph";
  let reader, interiors, externals_of_root =
    fusion_index graph plan.Memplan.fusion
  in
  let last_of = derive_last graph reader in
  let arena = plan.Memplan.slab_bytes in
  (* Coverage: one range per materialising node, none for persistent
     nodes (fed, outside the slab) or fused interiors (registers). *)
  for p = 0 to n - 1 do
    let node = Graph.node_at graph p and placed = offset.(p) >= 0 in
    if persistent_op (Node.op node) then begin
      if placed then
        err ~check:"alias" ~nodes:[ Node.id node ]
          "persistent %s has a range in the slab: its value would be \
           overwritten when the range is reused"
          (describe node)
    end
    else if interiors.(p) then begin
      if placed then
        err ~check:"alias" ~nodes:[ Node.id node ]
          "fused interior %s has a range in the slab but lives only in \
           the fused kernel's registers"
          (describe node)
    end
    else if not placed then
      err ~check:"alias" ~nodes:[ Node.id node ]
        "%s materialises but has no range in the slab" (describe node)
  done;
  (* Re-derive every interval; distrust the recorded expiry. *)
  let entries = ref [] in
  for def = 0 to n - 1 do
    let lo = offset.(def) in
    if lo >= 0 then begin
      let node = Graph.node_at graph def in
      let size = Node.size_bytes node and last = last_of.(def) in
      if expiry.(def) <> last then
        err ~check:"arena" ~nodes:[ Node.id node ]
          "range of %s records steps %d..%d but the schedule implies %d..%d"
          (describe node) def expiry.(def) def last;
      if lo + size > arena then
        err ~check:"arena" ~nodes:[ Node.id node ]
          "range of %s ([%d, %d)) escapes the %d-byte slab" (describe node) lo
          (lo + size) arena;
      entries := (node, lo, size, def, last) :: !entries
    end
  done;
  let arr = Array.of_list (List.rev !entries) in
  (* A taker placed at its donor's offset at the donor's last read: legal
     only as an in-place transfer of the same range. Each fault is a
     thunk that reports it; a legal transfer has none. *)
  let handover_faults (dn, _, dsz, _, _) (tn, _, tsz, tdef, _) =
    let nodes = [ Node.id tn; Node.id dn ] in
    let fault cond report = if cond then Some report else None in
    let candidates =
      match externals_of_root.(tdef) with
      | Some externals -> externals
      | None -> Node.inputs tn
    in
    List.filter_map Fun.id
      [
        fault (dsz <> tsz) (fun () ->
            err ~check:"inplace" ~nodes
              "%s takes over the range of %s in place, but they differ in \
               size (%d vs %d bytes)"
              (describe tn) (describe dn) tsz dsz);
        fault (not (inplace_capable_op (Node.op tn))) (fun () ->
            err ~check:"inplace" ~nodes
              "%s takes over the range of %s in place, but %s cannot write \
               in place (it reads its inputs non-elementwise)"
              (describe tn) (describe dn)
              (Op.to_string (Node.op tn)));
        fault
          (not (List.exists (fun c -> Node.id c = Node.id dn) candidates))
          (fun () ->
            err ~check:"inplace" ~nodes
              "%s writes in place over %s, which is not among the values \
               its instruction reads — the donor's last read is elsewhere \
               and would observe the overwrite"
              (describe tn) (describe dn));
        fault (Graph.is_output graph (Node.id dn)) (fun () ->
            err ~check:"inplace" ~nodes
              "in-place donor %s is a graph output: its value must survive \
               the step"
              (describe dn));
      ]
  in
  (* Two ranges live at the same time and sharing bytes conflict unless
     they are an exact handover: the same offset, one defined at the
     other's last read. Which one is the donor does not depend on the
     order the pair comes in, unless each is defined at the other's last
     read, which no legal handover is. *)
  let handover (_, alo, _, adef, alast) (_, blo, _, bdef, blast) =
    if alo <> blo then `None
    else if bdef = alast && adef = blast then `Both
    else if bdef = alast then `Forward
    else if adef = blast then `Backward
    else `None
  in
  let keep i j =
    let a = arr.(i) and b = arr.(j) in
    match handover a b with
    | `Forward -> handover_faults a b <> []
    | `Backward -> handover_faults b a <> []
    | `Both | `None -> true
  in
  let field f = Array.map f arr in
  List.iter
    (fun (i, j) ->
      let ((an, alo, asz, adef, alast) as a) = arr.(i)
      and ((bn, blo, bsz, bdef, blast) as b) = arr.(j) in
      match handover a b with
      | `Forward | `Both -> List.iter (fun f -> f ()) (handover_faults a b)
      | `Backward -> List.iter (fun f -> f ()) (handover_faults b a)
      | `None ->
        err ~check:"alias"
          ~nodes:[ Node.id an; Node.id bn ]
          "%s (steps %d..%s, bytes [%d, %d)) and %s (steps %d..%s, bytes \
           [%d, %d)) are live at the same time and overlap in bytes [%d, \
           %d)"
          (describe an) adef
          (if alast = max_int then "end" else string_of_int alast)
          alo (alo + asz) (describe bn) bdef
          (if blast = max_int then "end" else string_of_int blast)
          blo (blo + bsz) (max alo blo)
          (min (alo + asz) (blo + bsz)))
    (Overlap.live_pairs ~steps:(Graph.node_count graph)
       ~def:(field (fun (_, _, _, d, _) -> d))
       ~last:(field (fun (_, _, _, _, l) -> l))
       ~offset:(field (fun (_, o, _, _, _) -> o))
       ~size:(field (fun (_, _, z, _, _) -> z))
       ~keep);
  report

let lint ?schedule ?fusion ?plan graph =
  let report = Report.create () in
  let add r = Report.append r ~into:report in
  add (check_schedule ?schedule graph);
  add (check_determinism graph);
  add (check_recompute graph);
  (match fusion with
  | Some f -> add (check_fusion graph f)
  | None -> ());
  (match plan with Some p -> add (check_ranges graph p) | None -> ());
  report
