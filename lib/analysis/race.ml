(* Race-verify: static partition-disjointness analysis for the parallel
   executor.

   The compiled executor fans every heavy kernel out over
   [Parallel.parallel_for]: output rows (or the flat element range) are
   split into contiguous chunks that worker domains claim dynamically. The
   runtime is race-free only by construction — nothing else proves that
   the chunks actually tile the output, that no chunk reads what another
   chunk writes, or that the arena's in-place aliases stay legal under
   that partitioning. These checkers prove exactly that, per instruction,
   from scratch.

   Like Verify, every predicate here deliberately DUPLICATES the runtime
   instead of importing it: the chunk formula, the fan-out gate, the
   per-operator access patterns and work weights are all re-stated
   locally, so a kernel bug and a checker bug must coincide for a race to
   slip through. A new operator must be classified here too — the
   exhaustive matches make the compiler insist. *)

open Echo_ir
module Report = Echo_diag.Report
module Parallel = Echo_tensor.Parallel
module Shape = Echo_tensor.Shape

let describe n =
  Printf.sprintf "%s %s (#%d)" (Op.to_string (Node.op n)) (Node.name n)
    (Node.id n)

let positions graph =
  let tbl = Hashtbl.create 1024 in
  List.iteri (fun i n -> Hashtbl.replace tbl (Node.id n) i) (Graph.nodes graph);
  tbl

(* Member id -> group root, and the interior set, re-derived from the raw
   group list. *)
let fusion_index fusion =
  let roots = Hashtbl.create 64 and interiors = Hashtbl.create 64 in
  (match fusion with
  | None -> ()
  | Some f ->
    List.iter
      (fun g ->
        List.iter
          (fun m ->
            Hashtbl.replace roots (Node.id m) g.Fuse.root;
            if Node.id m <> Node.id g.Fuse.root then
              Hashtbl.replace interiors (Node.id m) ())
          g.Fuse.members)
      (Fuse.groups f));
  (roots, interiors)

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

(* ------------------------------------------------------------------ *)
(* The per-operator access model: what each compiled kernel's chunks
   write and read, re-stated from [Tensor.Into].                       *)
(* ------------------------------------------------------------------ *)

type access = {
  rows : int;  (** the index range handed to [parallel_for] *)
  stride : int;  (** dst elements owned per index *)
  work : int;  (** per-index scalar work, mirroring the kernels' hints *)
  may_alias : Node.t list;
      (** inputs the kernel reads chunk-aligned (or wholly before the
          fan-out): sharing the destination's range is race-free *)
  no_alias : Node.t list;
      (** inputs the kernel gathers across chunk boundaries: a read from
          these overlaps another domain's write if its range overlaps
          the destination's *)
  fans_out : bool;  (** the kernel consults [parallel_for] at all *)
}

let sequential_access node reads =
  {
    rows = Shape.numel (Node.shape node);
    stride = 1;
    work = 1;
    may_alias = [];
    no_alias = reads;
    fans_out = false;
  }

(* Per-element scalar work of an elementwise operator, matching
   [Tensor.fused_step_work]. *)
let elementwise_work op =
  match op with
  | Op.PowConst _ | Op.Sigmoid | Op.Tanh | Op.Exp | Op.Log | Op.Sqrt -> 8
  | _ -> 1

let last_dim shape =
  let r = Shape.rank shape in
  if r = 0 then 1 else shape.(r - 1)

let access_of node =
  let shape = Node.shape node in
  let numel = Shape.numel shape in
  let inputs = Node.inputs node in
  match Node.op node with
  | Op.Placeholder | Op.Variable -> sequential_access node []
  (* Compile-time or sequential writers: the [fill]/[blit]-family kernels
     and the three [Into] convolution kernels take no runtime and run on
     the calling domain, so there is no intra-instruction concurrency to
     prove. *)
  | Op.Zeros | Op.ConstFill _ | Op.DropoutMask _ | Op.Slice _ | Op.PadSlice _
  | Op.Concat _ | Op.Reshape _ | Op.BroadcastAxis _ | Op.CrossEntropy
  | Op.Conv2d _ | Op.Conv2dGradInput _ | Op.Conv2dGradKernel _ ->
    sequential_access node inputs
  (* Flat-element partition, element-aligned reads: chunk [lo, hi) reads
     exactly elements [lo, hi) of each operand before writing them. *)
  | Op.Neg | Op.Scale _ | Op.AddScalar _ | Op.PowConst _ | Op.Sigmoid
  | Op.Tanh | Op.Relu | Op.Exp | Op.Log | Op.Sqrt | Op.Sq | Op.Recip
  | Op.Sign | Op.Add | Op.Sub | Op.Mul | Op.Div ->
    {
      rows = numel;
      stride = 1;
      work = elementwise_work (Node.op node);
      may_alias = inputs;
      no_alias = [];
      fans_out = true;
    }
  (* The [1]-shaped multiplier is captured before the fan-out, so even it
     may share the destination's range. *)
  | Op.ScaleBy ->
    {
      rows = numel;
      stride = 1;
      work = 1;
      may_alias = inputs;
      no_alias = [];
      fans_out = true;
    }
  | Op.Matmul { trans_a; trans_b = _ } ->
    let m = shape.(0) and n = shape.(1) in
    let k =
      match inputs with
      | a :: _ ->
        let sa = Node.shape a in
        if trans_a then sa.(0) else sa.(1)
      | [] -> 1
    in
    {
      rows = m;
      stride = n;
      work = 2 * k * n;
      may_alias = [];
      no_alias = inputs;
      fans_out = true;
    }
  | Op.AddBias ->
    let r = shape.(0) and c = shape.(1) in
    let matrix, bias =
      match inputs with
      | [ m; b ] -> ([ m ], [ b ])
      | _ -> ([], inputs)
    in
    {
      rows = r;
      stride = c;
      work = c;
      may_alias = matrix;
      no_alias = bias;
      fans_out = true;
    }
  | Op.Softmax | Op.LogSoftmax ->
    let cols = last_dim shape in
    {
      rows = numel / max 1 cols;
      stride = cols;
      work = 10 * cols;
      may_alias = inputs;
      no_alias = [];
      fans_out = true;
    }
  | Op.CrossEntropyGrad ->
    let b = shape.(0) and v = last_dim shape in
    let logits, labels =
      match inputs with
      | [ l; lab ] -> ([ l ], [ lab ])
      | _ -> ([], inputs)
    in
    {
      rows = b;
      stride = v;
      work = 10 * v;
      may_alias = logits;
      no_alias = labels;
      fans_out = true;
    }
  | Op.ReduceSum { axis; _ } | Op.ReduceMean { axis; _ } ->
    let src_shape =
      match inputs with x :: _ -> Node.shape x | [] -> shape
    in
    let outer = ref 1 and inner = ref 1 in
    Array.iteri
      (fun i d ->
        if i < axis then outer := !outer * d
        else if i > axis then inner := !inner * d)
      src_shape;
    let d = if axis < Array.length src_shape then src_shape.(axis) else 1 in
    {
      rows = !outer;
      stride = !inner;
      work = d * !inner;
      may_alias = [];
      no_alias = inputs;
      fans_out = true;
    }
  | Op.Transpose2d ->
    let n = shape.(0) and m = shape.(1) in
    {
      rows = n;
      stride = m;
      work = m;
      may_alias = [];
      no_alias = inputs;
      fans_out = true;
    }
  | Op.Embedding ->
    let b = shape.(0) and d = last_dim shape in
    {
      rows = b;
      stride = d;
      work = d;
      may_alias = [];
      no_alias = inputs;
      fans_out = true;
    }
  | Op.EmbeddingGrad _ ->
    let v = shape.(0) and d = last_dim shape in
    let b =
      match inputs with ids :: _ -> Shape.numel (Node.shape ids) | [] -> 1
    in
    {
      rows = v;
      stride = d;
      work = b + (b * d / max 1 v);
      may_alias = [];
      no_alias = inputs;
      fans_out = true;
    }

(* A fused group root compiles to one step-outer sweep over the root's
   flat element range; every external is read element-aligned (the [1]-
   shaped ScaleBy multiplier wholly before any write), so all externals
   may alias the destination. *)
let fused_access g =
  let root = g.Fuse.root in
  let work =
    List.fold_left (fun acc m -> acc + elementwise_work (Node.op m)) 0
      g.Fuse.members
  in
  {
    rows = Shape.numel (Node.shape root);
    stride = 1;
    work;
    may_alias = g.Fuse.externals;
    no_alias = [];
    fans_out = true;
  }

(* ------------------------------------------------------------------ *)
(* Partition re-derivation: the runtime's fan-out decision, re-stated. *)
(* ------------------------------------------------------------------ *)

(* The default chunk formula, duplicated from [Parallel.chunk_bounds]. *)
let chunk_bounds n parts i = (i * n / parts, (i + 1) * n / parts)

(* How many chunks [parallel_for] splits [rows] indices of [work] weight
   into under [runtime] — the same gate, quantum and caps the runtime
   applies, re-stated. [1] means the kernel runs sequentially. *)
let derive_parts runtime ~rows ~work =
  let fan = Parallel.effective_fanout runtime in
  let gate = Parallel.min_fanout_work runtime in
  let total = rows * max 1 work in
  if fan <= 1 || total < gate || rows <= 0 then 1
  else begin
    let quantum = max 1 (gate / 4) in
    let parts = min (fan * Parallel.chunks_per_domain) (max 1 (total / quantum)) in
    let parts = min parts rows in
    if parts <= 1 then 1 else parts
  end

(* ------------------------------------------------------------------ *)
(* Checkers                                                            *)
(* ------------------------------------------------------------------ *)

let cache_line_bytes = 64
let float_bytes = 8

let check_kernels ?chunk_bounds:(bounds = chunk_bounds) ?fusion ?offsets
    ~runtime graph =
  let report = Report.create () in
  let err ~check ~nodes fmt =
    Report.errorf report ~check ~stage:"executable" ~nodes fmt
  in
  let _, interiors = fusion_index fusion in
  let group_of_root =
    match fusion with
    | Some f -> fun node -> Fuse.group_of_root f (Node.id node)
    | None -> fun _ -> None
  in
  (* node id -> its byte range [lo, hi) in the slab *)
  let range_of = Hashtbl.create 256 in
  (match offsets with
  | Some a ->
    List.iter
      (fun s ->
        Hashtbl.replace range_of s.Echo_exec.Assign.node_id
          (s.Echo_exec.Assign.offset, s.Echo_exec.Assign.offset + s.Echo_exec.Assign.size))
      (Echo_exec.Assign.slots a)
  | None -> ());
  let partitioned = ref 0 in
  let unaligned_boundaries = ref 0 in
  let unaligned_instrs = ref 0 in
  List.iter
    (fun node ->
      match Node.op node with
      | Op.Placeholder | Op.Variable -> ()
      | _ when Hashtbl.mem interiors (Node.id node) -> ()
      | _ ->
        let a =
          match group_of_root node with
          | Some g -> fused_access g
          | None -> access_of node
        in
        let parts =
          if a.fans_out then derive_parts runtime ~rows:a.rows ~work:a.work
          else 1
        in
        if parts > 1 then begin
          incr partitioned;
          (* Coverage and pairwise disjointness: the chunks must tile
             [0, rows) exactly. Monotone, gap-free, overlap-free bounds
             prove every pair of concurrent writes disjoint. *)
          let prev_hi = ref 0 in
          let instr_unaligned = ref 0 in
          for i = 0 to parts - 1 do
            let lo, hi = bounds a.rows parts i in
            if hi < lo then
              err ~check:"race-partition" ~nodes:[ Node.id node ]
                "chunk %d of %s spans [%d, %d): negative extent" i
                (describe node) lo hi;
            if lo < !prev_hi then
              err ~check:"race-partition" ~nodes:[ Node.id node ]
                "chunks %d and %d of %s both write rows [%d, %d): concurrent \
                 domains write the same destination cells"
                (i - 1) i (describe node) lo !prev_hi
            else if lo > !prev_hi then
              err ~check:"race-partition" ~nodes:[ Node.id node ]
                "rows [%d, %d) of %s are written by no chunk: the kernel \
                 would leave stale data in its destination"
                !prev_hi lo (describe node);
            if
              i > 0
              && lo * a.stride * float_bytes mod cache_line_bytes <> 0
            then incr instr_unaligned;
            prev_hi := max !prev_hi hi
          done;
          if !prev_hi <> a.rows then
            err ~check:"race-partition" ~nodes:[ Node.id node ]
              "rows [%d, %d) of %s are written by no chunk: the kernel would \
               leave stale data in its destination"
              !prev_hi a.rows (describe node);
          if !instr_unaligned > 0 then begin
            unaligned_boundaries := !unaligned_boundaries + !instr_unaligned;
            incr unaligned_instrs
          end;
          (* In-place alias legality under the partition: an input the
             kernel gathers across chunk boundaries must not overlap the
             destination's range — chunk [i]'s read of it would overlap
             chunk [j]'s concurrent write. *)
          match Hashtbl.find_opt range_of (Node.id node) with
          | None -> ()
          | Some (dlo, dhi) ->
            List.iter
              (fun input ->
                match Hashtbl.find_opt range_of (Node.id input) with
                | Some (ilo, ihi) when ilo < dhi && dlo < ihi ->
                  err ~check:"race-alias"
                    ~nodes:[ Node.id node; Node.id input ]
                    "%s gathers %s (bytes [%d, %d)) across chunk boundaries \
                     while writing bytes [%d, %d): the read overlaps a \
                     concurrent domain's write"
                    (describe node) (describe input) ilo ihi dlo dhi
                | Some _ | None -> ())
              a.no_alias
        end)
    (Graph.nodes graph);
  if !unaligned_boundaries > 0 then
    Report.infof report ~check:"race-sharing" ~stage:"executable" ~nodes:[]
      "%d chunk boundary(ies) across %d of %d partitioned instruction(s) \
       fall inside a %d-byte cache line: adjacent domains write the same \
       line (false sharing, a throughput hazard, not a correctness one)"
      !unaligned_boundaries !unaligned_instrs !partitioned cache_line_bytes;
  report

let check_fused plan =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"race-fused" ~stage:"executable" ~nodes fmt
  in
  List.iter
    (fun g ->
      let root = g.Fuse.root in
      let sweep = Shape.numel (Node.shape root) in
      List.iter
        (fun m ->
          let n = Shape.numel (Node.shape m) in
          if n <> sweep then
            err
              ~nodes:[ Node.id root; Node.id m ]
              "fused group rooted at %s sweeps %d element(s) but member %s \
               spans %d: member-at-a-time semantics would write outside the \
               step-outer partition"
              (describe root) sweep (describe m) n)
        g.Fuse.members;
      List.iter
        (fun e ->
          let n = Shape.numel (Node.shape e) in
          if n <> sweep && n <> 1 then
            err
              ~nodes:[ Node.id root; Node.id e ]
              "fused group rooted at %s sweeps %d element(s) but external %s \
               spans %d: chunks would read outside their partition of the \
               operand"
              (describe root) sweep (describe e) n)
        g.Fuse.externals)
    (Fuse.groups plan);
  report

let check_lifetimes ?fusion ~intervals graph =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"race-liveness" ~stage:"executable" ~nodes fmt
  in
  let pos = positions graph in
  let roots, interiors = fusion_index fusion in
  let claimed = Hashtbl.create 1024 in
  List.iter
    (fun { Echo_exec.Liveness.node; def_step = def; last_step = last } ->
      let id = Node.id node in
      if Hashtbl.mem claimed id then
        err ~nodes:[ id ] "node #%d has two liveness intervals in the plan" id
      else Hashtbl.replace claimed id ();
      match Hashtbl.find_opt pos id with
      | None ->
        err ~nodes:[ id ]
          "the plan carries a liveness interval for node #%d, which is not \
           in the graph"
          id
      | Some derived_def ->
        let node = Graph.find graph id in
        let derived_last = derive_last graph pos roots node derived_def in
        if def <> derived_def then
          err ~nodes:[ id ]
            "the plan defines %s at step %d but it is scheduled at step %d"
            (describe node) def derived_def;
        if last < derived_last then
          err ~nodes:[ id ]
            "the plan expires %s at step %s but a consumer reads it at step \
             %s: its buffer can be recycled under the pending read (stale- \
             read race)"
            (describe node)
            (if last = max_int then "end" else string_of_int last)
            (if derived_last = max_int then "end"
             else string_of_int derived_last)
        else if last > derived_last then
          err ~nodes:[ id ]
            "the plan keeps %s live to step %s but its last consumer reads \
             at step %s: the claimed read does not exist"
            (describe node)
            (if last = max_int then "end" else string_of_int last)
            (if derived_last = max_int then "end"
             else string_of_int derived_last))
    intervals;
  (* Coverage: a node the plan forgot has no interval at all — the
     executor would free its buffer immediately. *)
  List.iter
    (fun n ->
      let id = Node.id n in
      let persistent =
        match Node.op n with
        | Op.Placeholder | Op.Variable -> true
        | _ -> false
      in
      if
        (not persistent)
        && (not (Hashtbl.mem interiors id))
        && not (Hashtbl.mem claimed id)
      then
        err ~nodes:[ id ]
          "%s has no liveness interval in the plan: the executor has no \
           basis to keep its buffer alive"
          (describe n))
    (Graph.nodes graph);
  report

(* The address layout is the plan's own offsets: the executor binds every
   value to a view of one slab at exactly these bytes, so two values whose
   ranges overlap share real cells. *)
let check_addresses ?fusion graph offsets =
  let report = Report.create () in
  let err ~nodes fmt =
    Report.errorf report ~check:"race-address" ~stage:"executable" ~nodes fmt
  in
  let pos = positions graph in
  let roots, _ = fusion_index fusion in
  let entries =
    List.filter_map
      (fun s ->
        let id = s.Echo_exec.Assign.node_id in
        match Hashtbl.find_opt pos id with
        | None ->
          err ~nodes:[ id ] "placed node #%d is not in the graph" id;
          None
        | Some def ->
          let n = Graph.find graph id in
          let last = derive_last graph pos roots n def in
          Some (n, s.Echo_exec.Assign.offset, Node.size_bytes n, def, last))
      (Echo_exec.Assign.slots offsets)
  in
  let arr = Array.of_list entries in
  (* Sort by base address; only address-overlapping pairs can race, and
     they are adjacent in this order. *)
  Array.sort (fun (_, b1, _, _, _) (_, b2, _, _, _) -> compare b1 b2) arr;
  let report_race wn w_def vn v_last ~lo ~hi =
    err
      ~nodes:[ Node.id wn; Node.id vn ]
      "writing %s (step %d) overwrites bytes [%d, %d) of %s, live to step %s \
       with a pending read: overlapping live ranges"
      (describe wn) w_def lo hi (describe vn)
      (if v_last = max_int then "end" else string_of_int v_last)
  in
  let n_entries = Array.length arr in
  for i = 0 to n_entries - 1 do
    let n1, base1, sz1, def1, last1 = arr.(i) in
    let j = ref (i + 1) in
    let continue = ref true in
    while !continue && !j < n_entries do
      let n2, base2, sz2, def2, last2 = arr.(!j) in
      if base2 >= base1 + sz1 then continue := false
      else if not (Node.equal n1 n2) then begin
        (* Address ranges overlap. Writing one while the other still has
           a pending read is a race — except the sanctioned handover of
           one whole range, where the overwriting instruction IS the last
           reader (in-place, legality proven by Verify's range checker).
           A range overlapping another only in part is never a
           handover. *)
        let same = base1 = base2 && sz1 = sz2 in
        let lo = max base1 base2 and hi = min (base1 + sz1) (base2 + sz2) in
        if def1 < def2 && if same then last1 > def2 else last1 >= def2 then
          report_race n2 def2 n1 last1 ~lo ~hi;
        if def2 < def1 && if same then last2 > def1 else last2 >= def1 then
          report_race n1 def1 n2 last2 ~lo ~hi
      end;
      incr j
    done
  done;
  report

let check ?chunk_bounds ?intervals ?fusion ?offsets ~runtime graph =
  let report = Report.create () in
  let add r = Report.append r ~into:report in
  add (check_kernels ?chunk_bounds ?fusion ?offsets ~runtime graph);
  (match fusion with Some f -> add (check_fused f) | None -> ());
  (match intervals with
  | Some iv -> add (check_lifetimes ?fusion ~intervals:iv graph)
  | None -> ());
  (match offsets with
  | Some a -> add (check_addresses ?fusion graph a)
  | None -> ());
  report
