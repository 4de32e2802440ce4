(* Interpreter, liveness, memory planner and footprint tests. *)

open Echo_tensor
open Echo_ir
open Echo_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Interpreter *)

let test_interp_chain () =
  let x = Node.placeholder [| 2 |] in
  let y = Node.scale 2.0 (Node.add_scalar 1.0 x) in
  let g = Graph.create [ y ] in
  let out = Interp.eval g ~feeds:[ (x, Tensor.of_list1 [ 1.0; 2.0 ]) ] in
  check_bool "value" true (Tensor.equal (List.hd out) (Tensor.of_list1 [ 4.0; 6.0 ]))

let test_interp_missing_feed () =
  let x = Node.placeholder ~name:"data" [| 2 |] in
  let g = Graph.create [ Node.neg x ] in
  check_bool "raises named" true
    (try
       ignore (Interp.eval g ~feeds:[]);
       false
     with Interp.Missing_feed msg -> String.length msg > 0)

let test_interp_feed_shape_checked () =
  let x = Node.placeholder [| 2 |] in
  let g = Graph.create [ Node.neg x ] in
  check_bool "raises" true
    (try
       ignore (Interp.eval g ~feeds:[ (x, Tensor.zeros [| 3 |]) ]);
       false
     with Invalid_argument _ -> true)

let test_interp_leaves () =
  let z = Node.zeros [| 2; 2 |] in
  let c = Node.const_fill 3.0 [| 2; 2 |] in
  let g = Graph.create [ Node.add z c ] in
  let out = List.hd (Interp.eval g ~feeds:[]) in
  check_bool "filled" true (Tensor.equal out (Tensor.full [| 2; 2 |] 3.0))

let test_interp_deterministic_dropout () =
  let m = Node.dropout_mask ~p:0.5 ~seed:3 [| 16 |] in
  let g = Graph.create [ m ] in
  let a = List.hd (Interp.eval g ~feeds:[]) in
  let b = List.hd (Interp.eval g ~feeds:[]) in
  check_bool "same mask across evals" true (Tensor.equal a b)

let test_eval_scalar () =
  let x = Node.placeholder [| 3 |] in
  let s = Node.reduce_sum ~axis:0 ~keepdims:false x in
  let g = Graph.create [ s ] in
  Alcotest.(check (float 1e-12)) "sum" 6.0
    (Interp.eval_scalar g ~feeds:[ (x, Tensor.of_list1 [ 1.; 2.; 3. ]) ])

(* Liveness *)

let test_liveness_chain () =
  let x = Node.placeholder [| 4 |] in
  let a = Node.neg x in
  let b = Node.sq a in
  let c = Node.exp_ b in
  let g = Graph.create [ c ] in
  let live = Liveness.analyse g in
  let itv_a = Liveness.interval live (Node.id a) in
  check_int "a dies at b" 2 itv_a.Liveness.last_step;
  let itv_c = Liveness.interval live (Node.id c) in
  check_bool "output lives to end" true (itv_c.Liveness.last_step = max_int);
  check_bool "placeholder persistent" true (Liveness.is_persistent x);
  check_bool "interior transient" true (not (Liveness.is_persistent a))

let test_liveness_stash () =
  let x = Node.placeholder [| 4 |] in
  let f = Node.sigmoid x in
  let b = Node.mul ~region:Node.Backward f f in
  let g = Graph.create [ b ] in
  let live = Liveness.analyse g in
  check_bool "f crosses into backward" true
    (Liveness.crosses_into_backward live g (Node.id f));
  check_int "stash bytes" (Node.size_bytes f) (Liveness.stash_bytes live g)

let test_liveness_dying_at () =
  let x = Node.placeholder [| 4 |] in
  let a = Node.neg x in
  let b = Node.sq a in
  let g = Graph.create [ b ] in
  let live = Liveness.analyse g in
  let dying = Liveness.dying_at live 2 in
  check_int "a dies when b runs" 1 (List.length dying)

(* Memory planner *)

(* A chain of same-size elementwise nodes: with in-place, the whole chain
   runs in ONE buffer; without in-place but with reuse, two. *)
let test_plan_chain_inplace () =
  let x = Node.placeholder [| 256 |] in
  let rec extend acc k = if k = 0 then acc else extend (Node.sq acc) (k - 1) in
  let out = extend (Node.neg x) 10 in
  let g = Graph.create [ out ] in
  let r = Memplan.plan g in
  let persistent = Node.size_bytes x in
  check_int "one live transient buffer" (persistent + 1024) r.Memplan.live_peak_bytes;
  let r' = Memplan.plan ~inplace:false g in
  check_int "two without in-place" (persistent + 2048) r'.Memplan.live_peak_bytes

let test_plan_no_reuse_worst_case () =
  let x = Node.placeholder [| 256 |] in
  let rec extend acc k = if k = 0 then acc else extend (Node.sq acc) (k - 1) in
  let out = extend (Node.neg x) 4 in
  let g = Graph.create [ out ] in
  let r = Memplan.plan ~reuse:false ~inplace:false g in
  (* 5 transient nodes, every allocation fresh *)
  check_int "arena = all transients" (Node.size_bytes x + (5 * 1024)) r.Memplan.arena_bytes

let test_plan_diamond () =
  let x = Node.placeholder [| 256 |] in
  let a = Node.neg x and b = Node.sq x in
  let c = Node.add a b in
  let g = Graph.create [ c ] in
  let r = Memplan.plan ~inplace:false g in
  (* While c executes, a, b and c's buffers all coexist. *)
  check_int "peak = persistent + 3 transients"
    (Node.size_bytes x + 3072) r.Memplan.live_peak_bytes

let test_plan_weights_counted () =
  let w = Node.variable [| 10; 10 |] in
  let x = Node.placeholder [| 2; 10 |] in
  let y = Node.matmul ~trans_b:true x w in
  let r = Memplan.plan (Graph.create [ y ]) in
  check_int "weights" 400 r.Memplan.weight_bytes;
  check_int "inputs" 80 r.Memplan.input_bytes

let test_plan_stash_counted () =
  let x = Node.placeholder [| 8 |] in
  let f = Node.sigmoid x in
  let loss = Node.reduce_sum ~axis:0 ~keepdims:false f in
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt:[] in
  ignore training;
  let dloss = Node.mul ~region:Node.Backward f f in
  let g = Graph.create [ loss; dloss ] in
  let r = Memplan.plan g in
  check_int "stash = f" (Node.size_bytes f) r.Memplan.stash_bytes

let test_plan_breakdown_complete () =
  let x = Node.placeholder [| 8 |] in
  let f = Node.sigmoid x in
  let b = Node.mul ~region:Node.Backward f f in
  let r = Memplan.plan (Graph.create [ b ]) in
  check_int "all categories present" Category.count (List.length r.Memplan.breakdown);
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 r.Memplan.breakdown in
  check_bool "breakdown sums to peak" true (total = r.Memplan.live_peak_bytes)

let test_plan_workspace () =
  let input = Node.placeholder [| 1; 1; 8; 8 |] in
  let kernel = Node.variable [| 1; 1; 3; 3 |] in
  let y = Node.conv2d ~stride:1 ~pad:0 ~input ~kernel in
  let r = Memplan.plan (Graph.create [ y ]) in
  check_bool "conv has workspace" true (r.Memplan.max_workspace_bytes > 0);
  check_int "im2col panel" (1 * 3 * 3 * 6 * 6 * 4) r.Memplan.max_workspace_bytes

let test_plan_backward_start () =
  let x = Node.placeholder [| 4 |] in
  let f = Node.sigmoid x in
  let b = Node.neg ~region:Node.Backward f in
  let r = Memplan.plan (Graph.create [ b ]) in
  check_bool "backward start recorded" true (r.Memplan.step_of_backward_start = Some 2)

let test_plan_live_peak_le_arena () =
  (* On any graph the ideal allocator can't need more than the pool. *)
  let x = Node.placeholder [| 16 |] in
  let a = Node.neg x in
  let b = Node.sigmoid a in
  let c = Node.add a b in
  let r = Memplan.plan (Graph.create [ c ]) in
  check_bool "live_peak <= arena" true (r.Memplan.live_peak_bytes <= r.Memplan.arena_bytes)

let test_inplace_not_for_stashed () =
  (* sigmoid's input is consumed later by a backward node, so the sigmoid
     cannot steal its buffer. *)
  let x = Node.placeholder [| 64 |] in
  let a = Node.neg x in
  let s = Node.sigmoid a in
  let b = Node.mul ~region:Node.Backward a s in
  let r = Memplan.plan (Graph.create [ b ]) in
  (* a (stashed) and s and b: at peak a, s live together. *)
  check_bool "a kept alive" true
    (r.Memplan.live_peak_bytes >= Node.size_bytes x + (2 * 256))

(* Footprint helpers *)

let test_footprint_optimizer_state () =
  let w = Node.variable [| 100 |] in
  let x = Node.placeholder [| 100 |] in
  let y = Node.add x w in
  let r = Memplan.plan (Graph.create [ y ]) in
  let base = Footprint.total_bytes r ~optimizer:Footprint.Sgd in
  check_int "momentum adds weights" (base + 400)
    (Footprint.total_bytes r ~optimizer:Footprint.Momentum);
  check_int "adam adds 2x" (base + 800)
    (Footprint.total_bytes r ~optimizer:Footprint.Adam);
  check_bool "fits" true (Footprint.fits r ~optimizer:Footprint.Sgd ~budget_bytes:(base + 1))

let test_footprint_human () =
  Alcotest.(check string) "bytes" "512 B" (Footprint.human 512);
  Alcotest.(check string) "kib" "1.5 KiB" (Footprint.human 1536);
  Alcotest.(check string) "mib" "2.0 MiB" (Footprint.human (2 * 1024 * 1024));
  Alcotest.(check string) "gib" "3.00 GiB" (Footprint.human (3 * 1024 * 1024 * 1024))

(* Property: planner invariants on random DAGs. *)
let prop_plan_invariants =
  QCheck.Test.make ~name:"planner invariants on random DAGs" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let pool = ref [ Node.placeholder [| 4; 4 |]; Node.variable [| 4; 4 |] ] in
      for _ = 1 to 25 do
        let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
        let n =
          match Rng.int rng 4 with
          | 0 -> Node.add (pick ()) (pick ())
          | 1 -> Node.tanh_ (pick ())
          | 2 -> Node.matmul (pick ()) (pick ())
          | _ -> Node.mul (pick ()) (pick ())
        in
        pool := n :: !pool
      done;
      let g = Graph.create [ List.hd !pool ] in
      let r = Memplan.plan g in
      let r_noreuse = Memplan.plan ~reuse:false ~inplace:false g in
      r.Memplan.live_peak_bytes <= r.Memplan.arena_bytes
      && r.Memplan.arena_bytes <= r_noreuse.Memplan.arena_bytes
      && r.Memplan.live_peak_bytes >= r.Memplan.weight_bytes + r.Memplan.input_bytes)

(* Property: the walk's offsets on random schedules — values of sizes 1
   to 48 elements built by elementwise ops (in-place capable), adds of
   equal-size values, concats (larger) and slices (smaller), plus
   single-consumer chains of elementwise ops. With each value's interval
   re-derived from its consumers (closed: a value dying at step s is still
   live when step s places its result), two values live at the same time
   never overlap in bytes unless the later one took over the earlier as
   an in-place transfer at its last read; every chain keeps one offset;
   every range lies in the slab, and the slab is at least the live
   peak. *)
let prop_walk_offsets =
  QCheck.Test.make ~name:"best-fit walk on random schedules" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let sized () = Node.placeholder [| 1 + Rng.int rng 48 |] in
      let pool = ref [ sized (); sized (); Node.variable [| 8 |] ] in
      let chains = ref [] in
      let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
      let len n = (Node.shape n).(0) in
      for _ = 1 to 30 do
        let n =
          match Rng.int rng 6 with
          | 0 -> Node.sigmoid (pick ())
          | 1 ->
            let a = pick () in
            (match List.find_opt (fun b -> len b = len a) !pool with
            | Some b -> Node.add a b
            | None -> Node.neg a)
          | 2 -> Node.concat ~axis:0 [ pick (); pick () ]
          | 3 ->
            let a = pick () in
            let hi = 1 + Rng.int rng (len a) in
            Node.slice ~axis:0 ~lo:(Rng.int rng hi) ~hi a
          | 4 ->
            (* only the chain's end enters the pool, so every member but
               the last has exactly one consumer *)
            let head = Node.neg (pick ()) in
            let chain = ref [ head ] in
            for _ = 1 to 1 + Rng.int rng 4 do
              chain := Node.sigmoid (List.hd !chain) :: !chain
            done;
            chains := !chain :: !chains;
            List.hd !chain
          | _ -> sized ()
        in
        pool := n :: !pool
      done;
      let outputs = [ List.hd !pool; pick () ] in
      let g = Graph.create outputs in
      let r = Memplan.plan g in
      let nodes = Array.of_list (Graph.nodes g) in
      let pos = Hashtbl.create 64 in
      Array.iteri (fun i n -> Hashtbl.replace pos (Node.id n) i) nodes;
      let last i =
        if Graph.is_output g (Node.id nodes.(i)) then max_int
        else
          List.fold_left
            (fun acc c -> max acc (Hashtbl.find pos (Node.id c)))
            i
            (Graph.consumers g (Node.id nodes.(i)))
      in
      let off = r.Memplan.offset_of_slot in
      let size i = Node.size_bytes nodes.(i) in
      let ok = ref true in
      let n = Array.length nodes in
      for i = 0 to n - 1 do
        if off.(i) >= 0 then begin
          if off.(i) + size i > r.Memplan.slab_bytes then ok := false;
          for j = i + 1 to n - 1 do
            if
              off.(j) >= 0
              && j <= last i
              && off.(i) < off.(j) + size j
              && off.(j) < off.(i) + size i
            then begin
              let handover =
                off.(i) = off.(j)
                && size i = size j
                && j = last i
                && List.exists (Node.equal nodes.(i)) (Node.inputs nodes.(j))
              in
              if not handover then ok := false
            end
          done
        end
      done;
      let offset_of node = off.(Hashtbl.find pos (Node.id node)) in
      List.iter
        (fun chain ->
          (* a chain the outputs do not reach is not in the schedule *)
          if Hashtbl.mem pos (Node.id (List.hd chain)) then begin
            let o = offset_of (List.hd chain) in
            if List.exists (fun m -> offset_of m <> o) chain then ok := false
          end)
        !chains;
      !ok
      && r.Memplan.arena_bytes
         = r.Memplan.weight_bytes + r.Memplan.input_bytes + r.Memplan.slab_bytes
           + r.Memplan.max_workspace_bytes
      && r.Memplan.arena_bytes >= r.Memplan.live_peak_bytes)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "interp",
      [
        t "chain" test_interp_chain;
        t "missing feed" test_interp_missing_feed;
        t "feed shape checked" test_interp_feed_shape_checked;
        t "generated leaves" test_interp_leaves;
        t "deterministic dropout" test_interp_deterministic_dropout;
        t "eval_scalar" test_eval_scalar;
      ] );
    ( "liveness",
      [
        t "chain intervals" test_liveness_chain;
        t "stash detection" test_liveness_stash;
        t "dying_at" test_liveness_dying_at;
      ] );
    ( "memplan",
      [
        t "chain in-place" test_plan_chain_inplace;
        t "no-reuse worst case" test_plan_no_reuse_worst_case;
        t "diamond" test_plan_diamond;
        t "weights counted" test_plan_weights_counted;
        t "stash counted" test_plan_stash_counted;
        t "breakdown complete" test_plan_breakdown_complete;
        t "conv workspace" test_plan_workspace;
        t "backward start" test_plan_backward_start;
        t "live peak <= arena" test_plan_live_peak_le_arena;
        t "in-place spares stashed" test_inplace_not_for_stashed;
        QCheck_alcotest.to_alcotest prop_plan_invariants;
        QCheck_alcotest.to_alcotest prop_walk_offsets;
      ] );
    ( "footprint",
      [
        t "optimizer state" test_footprint_optimizer_state;
        t "human sizes" test_footprint_human;
      ] );
  ]
