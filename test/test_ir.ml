(* Tests for the IR: operator shape inference, node construction, graph
   scheduling and validation. *)

open Echo_tensor
open Echo_ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let shape = Alcotest.testable Shape.pp Shape.equal

let infer op ins = Op.infer_shape op ins None

let raises f = try f (); false with Invalid_argument _ -> true

(* Op.infer_shape *)

let test_infer_leaves () =
  Alcotest.check shape "placeholder" [| 2; 3 |]
    (Op.infer_shape Op.Placeholder [] (Some [| 2; 3 |]));
  check_bool "leaf without shape" true (raises (fun () -> ignore (infer Op.Variable [])));
  check_bool "non-leaf with shape" true
    (raises (fun () -> ignore (Op.infer_shape Op.Add [ [| 2 |]; [| 2 |] ] (Some [| 2 |]))))

let test_infer_elementwise () =
  Alcotest.check shape "unary keeps shape" [| 2; 3 |] (infer Op.Sigmoid [ [| 2; 3 |] ]);
  Alcotest.check shape "binary" [| 4 |] (infer Op.Mul [ [| 4 |]; [| 4 |] ]);
  check_bool "binary mismatch" true
    (raises (fun () -> ignore (infer Op.Add [ [| 2 |]; [| 3 |] ])));
  check_bool "wrong arity" true (raises (fun () -> ignore (infer Op.Neg [ [| 2 |]; [| 2 |] ])))

let test_infer_matmul () =
  Alcotest.check shape "nn" [| 2; 5 |]
    (infer (Op.Matmul { trans_a = false; trans_b = false }) [ [| 2; 3 |]; [| 3; 5 |] ]);
  Alcotest.check shape "nt" [| 2; 5 |]
    (infer (Op.Matmul { trans_a = false; trans_b = true }) [ [| 2; 3 |]; [| 5; 3 |] ]);
  Alcotest.check shape "tn" [| 3; 5 |]
    (infer (Op.Matmul { trans_a = true; trans_b = false }) [ [| 2; 3 |]; [| 2; 5 |] ]);
  Alcotest.check shape "tt" [| 3; 5 |]
    (infer (Op.Matmul { trans_a = true; trans_b = true }) [ [| 2; 3 |]; [| 5; 2 |] ]);
  check_bool "inner mismatch" true
    (raises (fun () ->
       ignore (infer (Op.Matmul { trans_a = false; trans_b = false }) [ [| 2; 3 |]; [| 4; 5 |] ])))

let test_infer_shape_ops () =
  Alcotest.check shape "slice" [| 2; 2 |]
    (infer (Op.Slice { axis = 1; lo = 1; hi = 3 }) [ [| 2; 5 |] ]);
  Alcotest.check shape "pad" [| 6; 3 |]
    (infer (Op.PadSlice { axis = 0; lo = 2; full = 6 }) [ [| 2; 3 |] ]);
  check_bool "pad does not fit" true
    (raises (fun () ->
       ignore (infer (Op.PadSlice { axis = 0; lo = 5; full = 6 }) [ [| 2; 3 |] ])));
  Alcotest.check shape "concat" [| 2; 7 |]
    (infer (Op.Concat { axis = 1 }) [ [| 2; 3 |]; [| 2; 4 |] ]);
  check_bool "concat empty" true
    (raises (fun () -> ignore (infer (Op.Concat { axis = 0 }) [])));
  Alcotest.check shape "reshape" [| 6 |] (infer (Op.Reshape [| 6 |]) [ [| 2; 3 |] ]);
  check_bool "reshape bad" true
    (raises (fun () -> ignore (infer (Op.Reshape [| 7 |]) [ [| 2; 3 |] ])));
  Alcotest.check shape "transpose" [| 3; 2 |] (infer Op.Transpose2d [ [| 2; 3 |] ])

let test_infer_reduce () =
  Alcotest.check shape "sum keep" [| 2; 1 |]
    (infer (Op.ReduceSum { axis = 1; keepdims = true }) [ [| 2; 5 |] ]);
  Alcotest.check shape "sum drop" [| 5 |]
    (infer (Op.ReduceSum { axis = 0; keepdims = false }) [ [| 2; 5 |] ]);
  Alcotest.check shape "1-D drops to scalar" Shape.scalar
    (infer (Op.ReduceMean { axis = 0; keepdims = false }) [ [| 4 |] ]);
  Alcotest.check shape "broadcast" [| 2; 5 |]
    (infer (Op.BroadcastAxis { axis = 1; n = 5 }) [ [| 2; 1 |] ]);
  check_bool "broadcast needs dim 1" true
    (raises (fun () -> ignore (infer (Op.BroadcastAxis { axis = 1; n = 5 }) [ [| 2; 3 |] ])))

let test_infer_nn () =
  Alcotest.check shape "xent scalar" Shape.scalar
    (infer Op.CrossEntropy [ [| 4; 10 |]; [| 4 |] ]);
  Alcotest.check shape "xent grad" [| 4; 10 |]
    (infer Op.CrossEntropyGrad [ [| 4; 10 |]; [| 4 |] ]);
  check_bool "xent batch mismatch" true
    (raises (fun () -> ignore (infer Op.CrossEntropy [ [| 4; 10 |]; [| 5 |] ])));
  Alcotest.check shape "embedding" [| 6; 8 |]
    (infer Op.Embedding [ [| 100; 8 |]; [| 6 |] ]);
  Alcotest.check shape "embedding grad" [| 100; 8 |]
    (infer (Op.EmbeddingGrad { vocab = 100 }) [ [| 6 |]; [| 6; 8 |] ]);
  Alcotest.check shape "conv" [| 2; 8; 3; 3 |]
    (infer (Op.Conv2d { stride = 2; pad = 1 }) [ [| 2; 4; 5; 5 |]; [| 8; 4; 3; 3 |] ]);
  check_bool "conv channels" true
    (raises (fun () ->
       ignore (infer (Op.Conv2d { stride = 1; pad = 0 }) [ [| 1; 2; 5; 5 |]; [| 8; 3; 3; 3 |] ])))

let test_op_classification () =
  check_bool "matmul not cheap" true (not (Op.is_cheap (Op.Matmul { trans_a = false; trans_b = false })));
  check_bool "sigmoid cheap" true (Op.is_cheap Op.Sigmoid);
  check_bool "conv not cheap" true (not (Op.is_cheap (Op.Conv2d { stride = 1; pad = 0 })));
  check_bool "placeholder not recomputable" true (not (Op.is_recomputable Op.Placeholder));
  check_bool "variable not recomputable" true (not (Op.is_recomputable Op.Variable));
  check_bool "dropout mask recomputable" true
    (Op.is_recomputable (Op.DropoutMask { p = 0.5; seed = 1 }));
  check_bool "matmul recomputable" true
    (Op.is_recomputable (Op.Matmul { trans_a = false; trans_b = false }));
  check_bool "leaves" true (Op.is_leaf Op.Zeros && not (Op.is_leaf Op.Add))

(* Node *)

let test_node_ids_increase () =
  let a = Node.placeholder [| 2 |] in
  let b = Node.placeholder [| 2 |] in
  check_bool "fresh increasing ids" true (Node.id b > Node.id a)

let test_node_shape_inferred () =
  let a = Node.placeholder [| 2; 3 |] and b = Node.variable [| 4; 3 |] in
  let m = Node.matmul ~trans_b:true a b in
  Alcotest.check shape "inferred" [| 2; 4 |] (Node.shape m)

let test_node_regions () =
  let a = Node.placeholder [| 2 |] in
  check_bool "default forward" true (Node.region a = Node.Forward);
  let b = Node.neg ~region:Node.Backward a in
  check_bool "backward" true (Node.region b = Node.Backward)

let test_node_size_bytes () =
  check_int "fp32 accounting" (4 * 6) (Node.size_bytes (Node.placeholder [| 2; 3 |]))

let test_clone_with_inputs () =
  let a = Node.placeholder [| 2 |] and b = Node.placeholder [| 2 |] in
  let s = Node.add a a in
  let s' = Node.clone_with_inputs ~region:Node.Backward s [ a; b ] in
  check_bool "fresh id" true (Node.id s' <> Node.id s);
  check_bool "same op" true (Node.op s' = Node.op s);
  check_bool "new inputs" true (List.exists (fun i -> Node.equal i b) (Node.inputs s'))

let test_node_hint_defaults () =
  let a = Node.placeholder [| 1 |] in
  Alcotest.(check (float 0.0)) "hint = id" (float_of_int (Node.id a)) (Node.hint a);
  let c = Node.create ~hint:3.5 ~shape:[| 1 |] Op.Zeros [] in
  Alcotest.(check (float 0.0)) "explicit hint" 3.5 (Node.hint c)

(* Graph *)

let chain n =
  let x = Node.placeholder ~name:"x" [| 2 |] in
  let rec extend acc k = if k = 0 then acc else extend (Node.neg acc) (k - 1) in
  (x, extend x n)

let test_graph_schedule_topological () =
  let _, out = chain 20 in
  let g = Graph.create [ out ] in
  Graph.validate g;
  check_int "node count" 21 (Graph.node_count g)

let test_graph_program_order () =
  (* With default hints the schedule is exactly creation order. *)
  let x = Node.placeholder [| 2 |] in
  let a = Node.neg x in
  let b = Node.sq x in
  let c = Node.add a b in
  let g = Graph.create [ c ] in
  Alcotest.(check (list int))
    "creation order"
    [ Node.id x; Node.id a; Node.id b; Node.id c ]
    (List.map Node.id (Graph.nodes g))

let test_graph_hint_overrides_order () =
  let x = Node.placeholder [| 2 |] in
  let a = Node.neg x in
  let b = Node.create ~hint:(Node.hint a -. 0.5) Op.Sq [ x ] in
  let c = Node.add a b in
  let g = Graph.create [ c ] in
  Alcotest.(check (list int))
    "b jumps before a"
    [ Node.id x; Node.id b; Node.id a; Node.id c ]
    (List.map Node.id (Graph.nodes g))

let test_graph_consumers () =
  let x = Node.placeholder [| 2 |] in
  let a = Node.neg x and b = Node.sq x in
  let c = Node.add a b in
  let g = Graph.create [ c ] in
  check_int "x has two consumers" 2 (List.length (Graph.consumers g (Node.id x)));
  check_int "c has none" 0 (List.length (Graph.consumers g (Node.id c)));
  check_bool "is_output" true (Graph.is_output g (Node.id c));
  check_bool "non-output" true (not (Graph.is_output g (Node.id x)))

let test_graph_reachability_only () =
  let x = Node.placeholder [| 2 |] in
  let used = Node.neg x in
  let _dead = Node.sq x in
  let g = Graph.create [ used ] in
  check_int "dead node excluded" 2 (Graph.node_count g)

let test_graph_duplicate_input_edges () =
  let x = Node.placeholder [| 2 |] in
  let m = Node.mul x x in
  let g = Graph.create [ m ] in
  Graph.validate g;
  check_int "consumer appears per slot" 2 (List.length (Graph.consumers g (Node.id x)))

let test_graph_regions_split () =
  let x = Node.placeholder [| 2 |] in
  let f = Node.neg x in
  let b = Node.sq ~region:Node.Backward f in
  let g = Graph.create [ b ] in
  check_int "fwd" 2 (List.length (Graph.forward_nodes g));
  check_int "bwd" 1 (List.length (Graph.backward_nodes g))

let test_graph_total_bytes () =
  let x = Node.placeholder [| 2; 2 |] in
  let y = Node.neg x in
  let g = Graph.create [ y ] in
  check_int "sum of outputs" 32 (Graph.total_output_bytes g)

let test_graph_empty_outputs () =
  check_bool "raises" true (raises (fun () -> ignore (Graph.create [])))

let test_graph_to_dot () =
  let x = Node.placeholder ~name:"input" [| 2 |] in
  let g = Graph.create [ Node.neg x ] in
  let dot = Graph.to_dot g in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "mentions node" true (contains dot "input");
  check_bool "has edges" true (contains dot "->")

(* Random-DAG property: schedules are always topological. *)
let random_dag_gen =
  QCheck.make ~print:(fun seed -> string_of_int seed)
    QCheck.Gen.(int_range 0 100_000)

let build_random_dag seed =
  let rng = Rng.create seed in
  let pool = ref [ Node.placeholder [| 2; 2 |]; Node.variable [| 2; 2 |] ] in
  for _ = 1 to 30 do
    let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
    let n =
      match Rng.int rng 5 with
      | 0 -> Node.add (pick ()) (pick ())
      | 1 -> Node.mul (pick ()) (pick ())
      | 2 -> Node.sigmoid (pick ())
      | 3 -> Node.matmul (pick ()) (pick ())
      | _ -> Node.tanh_ (pick ())
    in
    pool := n :: !pool
  done;
  List.hd !pool

let prop_random_dag_schedules =
  QCheck.Test.make ~name:"random DAG schedules validate" ~count:60 random_dag_gen
    (fun seed ->
      let out = build_random_dag seed in
      let g = Graph.create [ out ] in
      Graph.validate g;
      true)

(* The scheduler [Graph.create] replaced, kept as its oracle: collect every
   node reachable from the outputs, then run Kahn's walk over a [Set] of
   (hint, id) pairs ordered by polymorphic compare. Returns the schedule's
   ids. *)
module Ready = Stdlib.Set.Make (struct
  type t = float * int

  let compare = Stdlib.compare
end)

let reference_schedule outputs =
  let seen = Hashtbl.create 256 in
  let members = ref [] in
  let stack = ref outputs in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      if not (Hashtbl.mem seen (Node.id n)) then begin
        Hashtbl.add seen (Node.id n) ();
        members := n :: !members;
        stack := Node.inputs n @ !stack
      end
  done;
  let pending = Hashtbl.create 256 and consumers_of = Hashtbl.create 256 in
  List.iter
    (fun n ->
      Hashtbl.replace pending (Node.id n) (List.length (Node.inputs n));
      List.iter
        (fun i ->
          let cur = Option.value (Hashtbl.find_opt consumers_of (Node.id i)) ~default:[] in
          Hashtbl.replace consumers_of (Node.id i) (n :: cur))
        (Node.inputs n))
    !members;
  let ready =
    ref
      (List.fold_left
         (fun s n ->
           if Node.inputs n = [] then Ready.add (Node.hint n, Node.id n) s else s)
         Ready.empty !members)
  in
  let out = ref [] in
  while not (Ready.is_empty !ready) do
    let ((_, id) as key) = Ready.min_elt !ready in
    ready := Ready.remove key !ready;
    out := id :: !out;
    List.iter
      (fun c ->
        let d = Hashtbl.find pending (Node.id c) - 1 in
        Hashtbl.replace pending (Node.id c) d;
        if d = 0 then ready := Ready.add (Node.hint c, Node.id c) !ready)
      (Option.value (Hashtbl.find_opt consumers_of id) ~default:[])
  done;
  List.rev !out

(* [Graph.nodes] is the oracle's order, and [Graph.consumers] lists each
   node's readers in that order, once per input slot. *)
let matches_reference g =
  let order = List.map Node.id (Graph.nodes g) in
  order = reference_schedule (Graph.outputs g)
  && List.for_all
       (fun n ->
         let readers =
           List.concat_map
             (fun c ->
               List.filter_map
                 (fun i -> if Node.equal i n then Some (Node.id c) else None)
                 (Node.inputs c))
             (Graph.nodes g)
         in
         List.map Node.id (Graph.consumers g (Node.id n)) = readers)
       (Graph.nodes g)

(* Random DAGs whose hints tie (small integers, broken by id), go negative,
   and sit a clone's fraction [h - 1e-3] below another node's. *)
let build_hinted_dag seed =
  let rng = Rng.create seed in
  let pool = ref [ Node.placeholder [| 2; 2 |]; Node.variable [| 2; 2 |] ] in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  for _ = 1 to 40 do
    let hint =
      match Rng.int rng 6 with
      | 0 -> None
      | 1 -> Some (float_of_int (Rng.int rng 6))
      | 2 -> Some (-.float_of_int (Rng.int rng 40) -. 0.25)
      | 3 -> Some (Node.hint (pick ()) -. 1e-3)
      | 4 -> Some (Node.hint (pick ()))
      | _ -> Some (Rng.float rng *. 100.0)
    in
    let n =
      match Rng.int rng 6 with
      | 0 -> Node.create ?hint Op.Add [ pick (); pick () ]
      | 1 -> Node.create ?hint Op.Mul [ pick (); pick () ]
      | 2 -> Node.create ?hint Op.Sigmoid [ pick () ]
      | 3 -> Node.create ?hint (Op.Matmul { trans_a = false; trans_b = true }) [ pick (); pick () ]
      | 4 -> Node.create ?hint ~shape:[| 2; 2 |] Op.Zeros []
      | _ -> Node.create ?hint (Op.Concat { axis = 0 }) [ pick (); pick () ]
    in
    (* Concat doubles a dim; keep the pool at one shape. *)
    let n =
      if Node.shape n = [| 4; 2 |] then
        Node.create ?hint (Op.Slice { axis = 0; lo = 1; hi = 3 }) [ n ]
      else n
    in
    pool := n :: !pool
  done;
  [ List.hd !pool; pick (); pick () ]

let prop_schedule_matches_reference =
  QCheck.Test.make ~name:"schedule equals the Set-based reference" ~count:200
    random_dag_gen (fun seed -> matches_reference (Graph.create (build_hinted_dag seed)))

(* Every zoo model's training, optimized and rewritten graphs, under every
   registered planner, schedule exactly as the reference does. *)
let small_zoo () =
  let open Echo_models in
  [
    (Language_model.build
       {
         Language_model.ptb_default with
         vocab = 40;
         embed = 8;
         hidden = 8;
         layers = 2;
         seq_len = 5;
         batch = 2;
         dropout = 0.3;
       })
      .Language_model.model;
    (Nmt.build
       {
         Nmt.gnmt_like with
         src_vocab = 20;
         tgt_vocab = 20;
         embed = 6;
         hidden = 6;
         enc_layers = 1;
         dec_layers = 1;
         src_len = 3;
         tgt_len = 3;
         batch = 2;
         dropout = 0.1;
       })
      .Nmt.model;
    (Deepspeech.build
       {
         Deepspeech.ds2_like with
         batch = 1;
         time = 12;
         freq = 8;
         conv_channels = 2;
         rnn_hidden = 4;
         rnn_layers = 1;
         classes = 5;
         dropout = 0.0;
       })
      .Deepspeech.model;
    (Transformer.build
       {
         Transformer.base_like with
         vocab = 20;
         seq_len = 4;
         batch = 2;
         d_model = 8;
         heads = 2;
         d_ff = 12;
         layers = 1;
         dropout = 0.1;
       })
      .Transformer.model;
  ]

let test_zoo_schedules_match_reference () =
  let device = Echo_gpusim.Device.titan_xp in
  List.iter
    (fun model ->
      let training = (Echo_models.Model.training model).Echo_autodiff.Grad.graph in
      let optimized, _ = Echo_opt.Pipeline.run training in
      let check what g =
        check_bool
          (Printf.sprintf "%s %s" model.Echo_models.Model.name what)
          true (matches_reference g)
      in
      check "training" training;
      check "optimized" optimized;
      List.iter
        (fun planner ->
          let inst = Echo_core.Planner.instantiate planner.Echo_core.Planner.name in
          let rewritten, _ = Echo_core.Pass.run_instance ~device inst optimized in
          check (Echo_core.Planner.label inst) rewritten)
        (Echo_core.Planner.all ()))
    (small_zoo ())

(* Graph.fingerprint: the canonical structural digest compile caches key
   on. It must be invariant under rebuilds (fresh node ids), commutative
   input order and serialisation — and sensitive to structure, attributes
   and leaf names. *)

let fp_model ~name ~hidden () =
  let x = Node.placeholder ~name:"x" [| 2; 3 |] in
  let w = Node.variable ~name [| hidden; 3 |] in
  let b = Node.variable ~name:"b" [| hidden |] in
  let h = Node.relu (Node.add_bias (Node.matmul ~trans_b:true x w) b) in
  Graph.create [ h ]

let test_fingerprint_stable_across_rebuilds () =
  let a = fp_model ~name:"w" ~hidden:4 () in
  (* Burn some ids so the second build's node ids all differ. *)
  for _ = 1 to 13 do ignore (Node.placeholder [| 1 |]) done;
  let b = fp_model ~name:"w" ~hidden:4 () in
  check_bool "distinct ids" true
    (List.for_all2
       (fun n m -> Node.id n <> Node.id m)
       (Graph.nodes a) (Graph.nodes b));
  Alcotest.(check string)
    "same fingerprint" (Graph.fingerprint a) (Graph.fingerprint b)

let test_fingerprint_commutative_inputs () =
  let p () = Node.placeholder ~name:"p" [| 2 |] in
  let q () = Node.placeholder ~name:"q" [| 2 |] in
  let add_pq =
    let p = p () and q = q () in
    Graph.create [ Node.add p q ]
  in
  let add_qp =
    let p = p () and q = q () in
    Graph.create [ Node.add q p ]
  in
  Alcotest.(check string)
    "a+b = b+a" (Graph.fingerprint add_pq) (Graph.fingerprint add_qp);
  let sub_pq =
    let p = p () and q = q () in
    Graph.create [ Node.sub p q ]
  in
  let sub_qp =
    let p = p () and q = q () in
    Graph.create [ Node.sub q p ]
  in
  check_bool "a-b <> b-a" true
    (Graph.fingerprint sub_pq <> Graph.fingerprint sub_qp)

let test_fingerprint_serial_roundtrip () =
  let g = fp_model ~name:"w" ~hidden:4 () in
  let g' = Serial.of_string (Serial.to_string g) in
  Alcotest.(check string)
    "round-trip preserves fingerprint" (Graph.fingerprint g)
    (Graph.fingerprint g')

let test_fingerprint_distinguishes () =
  let base = fp_model ~name:"w" ~hidden:4 () in
  check_bool "different shape" true
    (Graph.fingerprint base <> Graph.fingerprint (fp_model ~name:"w" ~hidden:5 ()));
  (* Leaf names are part of the digest: a cache hit must guarantee that
     name-based feed resolution finds every input. *)
  check_bool "different leaf name" true
    (Graph.fingerprint base <> Graph.fingerprint (fp_model ~name:"w2" ~hidden:4 ()))

let test_fingerprint_golden () =
  (* Process-independence regression: this digest must never drift across
     runs, processes or toolchains — a drift would silently invalidate
     every persisted cache key. *)
  let x = Node.placeholder ~name:"x" [| 2; 2 |] in
  let g = Graph.create [ Node.relu (Node.add x x) ] in
  Alcotest.(check string)
    "golden digest" "cbc3b90901aa9e0da20792e110e7ba02" (Graph.fingerprint g)

(* The digest as first specified, one string per node and every input
   looked up by id: [Graph.fingerprint] writes the same bytes from the
   per-slot edges, so the two must agree on every graph. *)
let reference_fingerprint g =
  let canon n = Graph.position g (Node.id n) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun n ->
      let ins = List.map canon (Node.inputs n) in
      let ins =
        match Node.op n with
        | Op.Add | Op.Mul -> List.sort Int.compare ins
        | _ -> ins
      in
      Buffer.add_string buf (Op.key (Node.op n));
      Buffer.add_char buf '|';
      Buffer.add_string buf (Shape.to_string (Node.shape n));
      Buffer.add_char buf '|';
      Buffer.add_string buf
        (match Node.region n with Node.Forward -> "f" | Node.Backward -> "b");
      (match Node.op n with
      | Op.Placeholder | Op.Variable ->
        Buffer.add_char buf '|';
        Buffer.add_string buf (Node.name n)
      | _ -> ());
      List.iter (fun i -> Buffer.add_string buf ("," ^ string_of_int i)) ins;
      Buffer.add_char buf '\n')
    (Graph.nodes g);
  Buffer.add_string buf "outputs";
  List.iter
    (fun o -> Buffer.add_string buf (" " ^ string_of_int (canon o)))
    (Graph.outputs g);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let prop_fingerprint_matches_reference =
  QCheck.Test.make ~name:"fingerprint equals the per-node reference"
    ~count:100 random_dag_gen (fun seed ->
      let g = Graph.create (build_random_dag seed :: build_hinted_dag seed) in
      Graph.fingerprint g = reference_fingerprint g)

(* Every zoo model's training, optimized and echo-rewritten graphs: leaves,
   convolution gradients (shapes in the key), dropout masks, slices. *)
let test_zoo_fingerprints_match_reference () =
  let device = Echo_gpusim.Device.titan_xp in
  let echo = Echo_core.Planner.instantiate "echo" in
  List.iter
    (fun model ->
      let training = (Echo_models.Model.training model).Echo_autodiff.Grad.graph in
      let optimized, _ = Echo_opt.Pipeline.run training in
      let rewritten, _ = Echo_core.Pass.run_instance ~device echo optimized in
      List.iter
        (fun (what, g) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" model.Echo_models.Model.name what)
            (reference_fingerprint g) (Graph.fingerprint g))
        [ ("training", training); ("optimized", optimized); ("echo", rewritten) ])
    (small_zoo ())

(* Two builds of a model with unnamed constant leaves: dropout masks are
   named after their process-local ids, which must not reach the digest. *)
let test_fingerprint_stable_with_dropout () =
  let build () =
    let lm =
      Echo_models.Language_model.build
        {
          Echo_models.Language_model.ptb_default with
          vocab = 30;
          embed = 6;
          hidden = 6;
          layers = 1;
          seq_len = 3;
          batch = 2;
          dropout = 0.3;
        }
    in
    (Echo_models.Model.training lm.Echo_models.Language_model.model)
      .Echo_autodiff.Grad.graph
  in
  let a = build () in
  let b = build () in
  check_bool "has dropout masks" true
    (List.exists
       (fun n -> match Node.op n with Op.DropoutMask _ -> true | _ -> false)
       (Graph.nodes a));
  Alcotest.(check string)
    "same fingerprint" (Graph.fingerprint a) (Graph.fingerprint b)

let test_fingerprint_exact_floats () =
  let scaled k =
    let x = Node.placeholder ~name:"x" [| 2 |] in
    Graph.create [ Node.scale k x ]
  in
  check_bool "0.5 vs 0.5000001" true
    (Graph.fingerprint (scaled 0.5) <> Graph.fingerprint (scaled 0.5000001));
  Alcotest.(check string)
    "same float, same digest" (Graph.fingerprint (scaled 0.5))
    (Graph.fingerprint (scaled 0.5))

(* Shape errors name the op the way [Op.to_string] prints it, formatted
   only when the check fails. *)
let test_infer_shape_messages () =
  let message f =
    match f () with
    | _ -> "no error"
    | exception Invalid_argument m -> m
  in
  let x = Node.placeholder [| 2; 3 |] and y = Node.placeholder [| 4; 5 |] in
  Alcotest.(check string)
    "matmul" "Op.infer_shape(Matmul(N,T)): inner dims 3 vs 5 ([2x3] x [4x5])"
    (message (fun () -> Node.matmul ~trans_b:true x y));
  Alcotest.(check string)
    "reshape" "Op.infer_shape(Reshape([7])): cannot reshape [2x3] to [7]"
    (message (fun () -> Node.reshape [| 7 |] x));
  Alcotest.(check string)
    "arity" "Op.infer_shape(Scale(0.5)): expected 1 inputs, got 2"
    (message (fun () -> Node.create (Op.Scale 0.5) [ x; x ]));
  Alcotest.(check string)
    "leaf" "Op.infer_shape(ConstFill(0.25)): leaf requires an explicit shape"
    (message (fun () -> Op.infer_shape (Op.ConstFill 0.25) [] None));
  Alcotest.(check string)
    "dropout" "Op.infer_shape(DropoutMask(p=0.3,seed=7)): expected 0 inputs, got 1"
    (message (fun () ->
         Op.infer_shape (Op.DropoutMask { p = 0.3; seed = 7 }) [ [| 2 |] ] (Some [| 2 |])))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "op.infer",
      [
        t "leaves" test_infer_leaves;
        t "elementwise" test_infer_elementwise;
        t "matmul" test_infer_matmul;
        t "shape ops" test_infer_shape_ops;
        t "reductions" test_infer_reduce;
        t "nn kernels" test_infer_nn;
        t "classification" test_op_classification;
        t "shape error messages" test_infer_shape_messages;
      ] );
    ( "node",
      [
        t "ids increase" test_node_ids_increase;
        t "shape inferred" test_node_shape_inferred;
        t "regions" test_node_regions;
        t "size bytes" test_node_size_bytes;
        t "clone with inputs" test_clone_with_inputs;
        t "hints" test_node_hint_defaults;
      ] );
    ( "graph",
      [
        t "schedule topological" test_graph_schedule_topological;
        t "program order" test_graph_program_order;
        t "hint overrides order" test_graph_hint_overrides_order;
        t "consumers" test_graph_consumers;
        t "reachability only" test_graph_reachability_only;
        t "duplicate input edges" test_graph_duplicate_input_edges;
        t "regions split" test_graph_regions_split;
        t "total bytes" test_graph_total_bytes;
        t "empty outputs" test_graph_empty_outputs;
        t "dot output" test_graph_to_dot;
        QCheck_alcotest.to_alcotest prop_random_dag_schedules;
        QCheck_alcotest.to_alcotest prop_schedule_matches_reference;
        t "zoo schedules match the reference" test_zoo_schedules_match_reference;
      ] );
    ( "fingerprint",
      [
        t "stable across rebuilds" test_fingerprint_stable_across_rebuilds;
        t "commutative inputs" test_fingerprint_commutative_inputs;
        t "serial round-trip" test_fingerprint_serial_roundtrip;
        t "distinguishes structure" test_fingerprint_distinguishes;
        t "golden digest" test_fingerprint_golden;
        t "stable across rebuilds with dropout" test_fingerprint_stable_with_dropout;
        t "exact float attributes" test_fingerprint_exact_floats;
        QCheck_alcotest.to_alcotest prop_fingerprint_matches_reference;
        t "zoo digests match the reference" test_zoo_fingerprints_match_reference;
      ] );
  ]
