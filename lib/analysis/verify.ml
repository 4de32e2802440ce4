open Echo_ir
module Assign = Echo_exec.Assign
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

let positions graph =
  let tbl = Hashtbl.create 1024 in
  List.iteri (fun i n -> Hashtbl.replace tbl (Node.id n) i) (Graph.nodes graph);
  tbl

(* Fusion structure re-derived from the raw group list (not from the plan's
   own index tables): member id -> group root, and the set of interiors. *)
let fusion_index fusion =
  let roots = Hashtbl.create 64 and interiors = Hashtbl.create 64 in
  let externals_of_root = Hashtbl.create 64 in
  (match fusion with
  | None -> ()
  | Some f ->
    List.iter
      (fun g ->
        Hashtbl.replace externals_of_root (Node.id g.Fuse.root) g.Fuse.externals;
        List.iter
          (fun m ->
            Hashtbl.replace roots (Node.id m) g.Fuse.root;
            if Node.id m <> Node.id g.Fuse.root then
              Hashtbl.replace interiors (Node.id m) ())
          g.Fuse.members)
      (Fuse.groups f));
  (roots, interiors, externals_of_root)

(* Last step at which [node]'s buffer is read, re-derived from consumer
   edges: [max_int] for graph outputs (they survive the step), and under
   fusion a group member's reads happen at its root's instruction. *)
let derive_last graph pos roots node def =
  if Graph.is_output graph (Node.id node) then max_int
  else
    List.fold_left
      (fun acc c ->
        let reader =
          match Hashtbl.find_opt roots (Node.id c) with
          | Some root -> root
          | None -> c
        in
        match Hashtbl.find_opt pos (Node.id reader) with
        | Some p -> max acc p
        | None -> acc)
      def
      (Graph.consumers graph (Node.id node))

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

let check_offsets graph offsets =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"assign" ~stage:"planned" ~nodes fmt
  in
  let pos = positions graph in
  let no_roots = Hashtbl.create 0 in
  let arena = Assign.arena_size offsets in
  let slots = Assign.slots offsets in
  (* Coverage: one slot per non-persistent node, no strays. *)
  let slot_of : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let id = s.Assign.node_id in
      if Hashtbl.mem slot_of id then
        err ~nodes:[ id ] "node #%d has two slots in the assignment" id
      else Hashtbl.replace slot_of id ())
    slots;
  List.iter
    (fun n ->
      if persistent_op (Node.op n) then begin
        if Hashtbl.mem slot_of (Node.id n) then
          err ~nodes:[ Node.id n ]
            "persistent %s has a slot in the transient arena" (describe n)
      end
      else if not (Hashtbl.mem slot_of (Node.id n)) then
        err ~nodes:[ Node.id n ] "transient %s has no slot in the assignment"
          (describe n))
    (Graph.nodes graph);
  (* Re-derive every interval; distrust the recorded steps. *)
  let derived =
    List.filter_map
      (fun s ->
        let id = s.Assign.node_id in
        match Hashtbl.find_opt pos id with
        | None ->
          err ~nodes:[ id ] "slot of node #%d, which is not in the graph" id;
          None
        | Some def ->
          let node = Graph.find graph id in
          let last = derive_last graph pos no_roots node def in
          if s.Assign.def_step <> def || s.Assign.last_step <> last then
            err ~nodes:[ id ]
              "slot of %s records steps %d..%d but the schedule implies \
               %d..%d"
              (describe node) s.Assign.def_step s.Assign.last_step def last;
          if s.Assign.offset < 0 || s.Assign.offset + s.Assign.size > arena
          then
            err ~nodes:[ id ]
              "slot of %s ([%d, %d)) escapes the %d-byte arena" (describe node)
              s.Assign.offset
              (s.Assign.offset + s.Assign.size)
              arena;
          Some (s, def, last))
      slots
  in
  let arr = Array.of_list derived in
  Array.sort (fun (_, d1, _) (_, d2, _) -> compare d1 d2) arr;
  (* Sorted by definition step, a bounded forward scan sees every
     concurrent pair: once [def] passes [a]'s last read, no later slot can
     overlap [a] in time. *)
  Array.iteri
    (fun i (a, _, a_last) ->
      let j = ref (i + 1) in
      let continue = ref true in
      while !continue && !j < Array.length arr do
        let b, b_def, _ = arr.(!j) in
        if b_def > a_last then continue := false
        else if
          a.Assign.offset < b.Assign.offset + b.Assign.size
          && b.Assign.offset < a.Assign.offset + a.Assign.size
        then
          err
            ~nodes:[ a.Assign.node_id; b.Assign.node_id ]
            "slots of node #%d ([%d, %d)) and node #%d ([%d, %d)) are live \
             simultaneously and overlap in address space"
            a.Assign.node_id a.Assign.offset
            (a.Assign.offset + a.Assign.size)
            b.Assign.node_id b.Assign.offset
            (b.Assign.offset + b.Assign.size);
        incr j
      done)
    arr;
  report

let check_binding ?fusion graph binding =
  let report = Report.create () in
  let err ~check ~nodes fmt =
    Report.errorf report ~check ~stage:"executable" ~nodes fmt
  in
  let pos = positions graph in
  let roots, interiors, externals_of_root = fusion_index fusion in
  (* Coverage: every materialising node bound exactly once. *)
  let bound = Hashtbl.create 1024 in
  List.iter
    (fun (n, bid) ->
      if Hashtbl.mem bound (Node.id n) then
        err ~check:"alias" ~nodes:[ Node.id n ]
          "%s is bound to two physical buffers" (describe n)
      else Hashtbl.replace bound (Node.id n) bid)
    binding;
  List.iter
    (fun n ->
      if
        (not (persistent_op (Node.op n)))
        && (not (Hashtbl.mem interiors (Node.id n)))
        && not (Hashtbl.mem bound (Node.id n))
      then
        err ~check:"alias" ~nodes:[ Node.id n ]
          "%s materialises but has no physical buffer in the compiled binding"
          (describe n))
    (Graph.nodes graph);
  (* Re-derive intervals and group by physical buffer. *)
  let by_bid : (int, (Node.t * int * int) list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (n, bid) ->
      if persistent_op (Node.op n) then
        err ~check:"alias" ~nodes:[ Node.id n ]
          "persistent %s is bound to transient buffer %d: its value would be \
           overwritten by buffer reuse"
          (describe n) bid
      else if Hashtbl.mem interiors (Node.id n) then
        err ~check:"alias" ~nodes:[ Node.id n ]
          "fused interior %s materialises buffer %d but lives only in the \
           fused kernel's registers"
          (describe n) bid
      else
        match Hashtbl.find_opt pos (Node.id n) with
        | None ->
          err ~check:"alias" ~nodes:[ Node.id n ]
            "bound node %s is not in the graph" (describe n)
        | Some def ->
          let last = derive_last graph pos roots n def in
          let cur = try Hashtbl.find by_bid bid with Not_found -> [] in
          Hashtbl.replace by_bid bid ((n, def, last) :: cur))
    binding;
  Hashtbl.iter
    (fun bid entries ->
      let arr = Array.of_list entries in
      Array.sort (fun (_, d1, _) (_, d2, _) -> compare d1 d2) arr;
      if Array.length arr > 1 then begin
        (* Scan in definition order keeping the live holder (the entry whose
           re-derived last read reaches furthest). A later definition before
           the holder's last read is an aliasing violation; a definition
           exactly at it is a buffer handover and must be a legal in-place
           transfer; past it, plain pool reuse. *)
        let holder = ref arr.(0) in
        for k = 1 to Array.length arr - 1 do
          let (hn, h_def, h_last) = !holder in
          let ((n, n_def, n_last) as entry) = arr.(k) in
          if Node.size_bytes n <> Node.size_bytes hn then
            err ~check:"alias"
              ~nodes:[ Node.id hn; Node.id n ]
              "%s and %s share physical buffer %d but differ in size (%d vs \
               %d bytes)"
              (describe hn) (describe n) bid (Node.size_bytes hn)
              (Node.size_bytes n);
          if n_def < h_last then
            err ~check:"alias"
              ~nodes:[ Node.id hn; Node.id n ]
              "%s (steps %d..%s) and %s (defined at step %d) are live \
               simultaneously but share physical buffer %d"
              (describe hn) h_def
              (if h_last = max_int then "end" else string_of_int h_last)
              (describe n) n_def bid
          else if n_def = h_last then begin
            (* Handover: the taker's instruction overwrites the donor's
               buffer in the very step of the donor's last read. *)
            if not (inplace_capable_op (Node.op n)) then
              err ~check:"inplace"
                ~nodes:[ Node.id n; Node.id hn ]
                "%s takes over the buffer of %s in place, but %s cannot \
                 write in place (it reads its inputs non-elementwise)"
                (describe n) (describe hn)
                (Op.to_string (Node.op n));
            let candidates =
              match Hashtbl.find_opt externals_of_root (Node.id n) with
              | Some externals -> externals
              | None -> Node.inputs n
            in
            if
              not
                (List.exists (fun c -> Node.id c = Node.id hn) candidates)
            then
              err ~check:"inplace"
                ~nodes:[ Node.id n; Node.id hn ]
                "%s writes in place over %s, which is not among the buffers \
                 its instruction reads — the donor's last read is elsewhere \
                 and would observe the overwrite"
                (describe n) (describe hn);
            if Graph.is_output graph (Node.id hn) then
              err ~check:"inplace"
                ~nodes:[ Node.id n; Node.id hn ]
                "in-place donor %s is a graph output: its value must survive \
                 the step"
                (describe hn)
          end;
          if n_last > h_last then holder := entry
        done
      end)
    by_bid;
  report

let lint ?schedule ?fusion ?offsets ?binding graph =
  let report = Report.create () in
  let add r = Report.append r ~into:report in
  add (check_schedule ?schedule graph);
  add (check_determinism graph);
  add (check_recompute graph);
  (match fusion with
  | Some f -> add (check_fusion graph f)
  | None -> ());
  (match offsets with
  | Some a -> add (check_offsets graph a)
  | None -> ());
  (match binding with
  | Some b -> add (check_binding ?fusion graph b)
  | None -> ());
  report
