(* The deterministic multicore kernel runtime and its integration with the
   parallelism-aware fusion cost model.

   Pools in this suite are created with [~oversubscribe:true] and
   [~min_fanout_work:0] so the fan-out + work-stealing path genuinely
   executes even on a single-core machine (the production default caps the
   fan-out at the hardware and gates it on real work, which on a small box
   means fanning out never engages — correct, but not what a differential
   test wants to exercise). *)

open Echo_tensor
open Echo_ir
open Echo_models
module Executor = Echo_compiler.Executor
module Fusion = Echo_opt.Fusion
module A = Echo_core.Autotune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Run [f] with [var] set to [value]. Restoring to "" on exit is equivalent
   to unset for both ECHO_DOMAINS and ECHO_FUSION (empty means default). *)
let with_env var value f =
  let saved = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value saved ~default:""))
    f

(* --- environment-variable parsing: strict, with pointed messages --- *)

let test_env_domains_parsing () =
  with_env "ECHO_DOMAINS" "3" (fun () ->
      check_int "ECHO_DOMAINS=3" 3 (Parallel.env_domains ()));
  with_env "ECHO_DOMAINS" " 2 " (fun () ->
      check_int "whitespace tolerated" 2 (Parallel.env_domains ()));
  with_env "ECHO_DOMAINS" "1" (fun () ->
      check_int "ECHO_DOMAINS=1" 1 (Parallel.env_domains ()));
  with_env "ECHO_DOMAINS" "" (fun () ->
      check_bool "empty falls back to the hardware" true
        (Parallel.env_domains () >= 1));
  List.iter
    (fun garbage ->
      with_env "ECHO_DOMAINS" garbage (fun () ->
          check_bool (Printf.sprintf "ECHO_DOMAINS=%S rejected" garbage) true
            (try
               ignore (Parallel.env_domains ());
               false
             with Invalid_argument msg ->
               contains ~sub:"ECHO_DOMAINS" msg
               && contains ~sub:garbage msg)))
    [ "two"; "0"; "-4"; "4x"; "1.5" ]

let test_env_fusion_parsing () =
  List.iter
    (fun v ->
      with_env "ECHO_FUSION" v (fun () ->
          check_bool (Printf.sprintf "ECHO_FUSION=%S enables" v) true
            (Fuse.env_enabled ())))
    [ ""; "1"; "on"; "true"; "yes"; "ON"; " Yes " ];
  List.iter
    (fun v ->
      with_env "ECHO_FUSION" v (fun () ->
          check_bool (Printf.sprintf "ECHO_FUSION=%S disables" v) false
            (Fuse.env_enabled ())))
    [ "0"; "off"; "false"; "no"; "OFF"; " No " ];
  List.iter
    (fun garbage ->
      with_env "ECHO_FUSION" garbage (fun () ->
          check_bool (Printf.sprintf "ECHO_FUSION=%S rejected" garbage) true
            (try
               ignore (Fuse.env_enabled ());
               false
             with Invalid_argument msg ->
               contains ~sub:"ECHO_FUSION" msg
               && contains ~sub:garbage msg)))
    [ "maybe"; "2"; "enabled"; "-1" ]

let test_create_validation () =
  List.iter
    (fun (label, f) ->
      check_bool label true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      ("domains=0 rejected", fun () -> Parallel.create ~domains:0 ());
      ("domains=-2 rejected", fun () -> Parallel.create ~domains:(-2) ());
      ( "chunks_per_domain=0 rejected",
        fun () -> Parallel.create ~domains:2 ~chunks_per_domain:0 () );
      ( "min_fanout_work=-1 rejected",
        fun () -> Parallel.create ~domains:2 ~min_fanout_work:(-1) () );
    ]

let test_with_config_views () =
  let rt =
    Parallel.with_config ~blocking_threshold:7 ~min_fanout_work:9
      Parallel.sequential
  in
  check_int "view threshold" 7 (Parallel.blocking_threshold rt);
  check_int "view gate" 9 (Parallel.min_fanout_work rt);
  check_int "view still sequential" 1 (Parallel.domains rt);
  check_bool "base handle untouched" true
    (Parallel.blocking_threshold Parallel.sequential <> 7)

(* --- the work-stealing loop: coverage and bitwise determinism --- *)

let prop_parallel_for_coverage =
  QCheck.Test.make ~name:"parallel_for covers each index exactly once"
    ~count:40
    QCheck.(pair (int_range 0 400) (int_range 1 6))
    (fun (n, d) ->
      let pool =
        Parallel.create ~domains:d ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let hits = Array.make (max n 1) 0 in
      Parallel.parallel_for pool ~work:7 ~n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.for_all (( = ) 1) (Array.sub hits 0 n))

let test_stealing_determinism () =
  let n = 10_000 in
  let compute rt =
    let out = Array.make n 0.0 in
    Parallel.parallel_for rt ~work:16 ~n (fun lo hi ->
        for i = lo to hi - 1 do
          let x = float_of_int i *. 1e-3 in
          out.(i) <- (sin x *. exp (-.x)) +. sqrt (x +. 1.0)
        done);
    out
  in
  let reference = compute Parallel.sequential in
  List.iter
    (fun d ->
      let pool =
        Parallel.create ~domains:d ~oversubscribe:true ~min_fanout_work:0 ()
      in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      for run = 1 to 5 do
        let got = compute pool in
        let ok = ref true in
        for i = 0 to n - 1 do
          if Int64.bits_of_float got.(i) <> Int64.bits_of_float reference.(i)
          then ok := false
        done;
        check_bool
          (Printf.sprintf "%d-domain stolen run %d bit-identical" d run)
          true !ok
      done)
    [ 2; 4 ]

(* A compiled fused executor on an oversubscribed pool: repeated runs of
   the very same executor (chunks stolen in a different order every time)
   must stay bitwise equal to the sequential unfused reference. *)
let test_executor_repeated_runs_deterministic () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 40;
        embed = 8;
        hidden = 8;
        layers = 2;
        seq_len = 5;
        batch = 3;
        dropout = 0.2;
      }
  in
  let model = lm.Language_model.model in
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let rng = Rng.create 7 in
  let feeds =
    List.map
      (fun node ->
        ( node,
          Tensor.init (Node.shape node) (fun _ ->
              float_of_int (Rng.int rng 40)) ))
      model.Model.placeholders
    @ Params.bindings model.Model.params
  in
  let bits t =
    Array.init (Tensor.numel t) (fun i -> Int64.bits_of_float (Tensor.get1 t i))
  in
  let reference =
    List.map bits
      (Executor.eval (Executor.compile ~runtime:Parallel.sequential g) ~feeds)
  in
  let pool =
    Parallel.create ~domains:4 ~oversubscribe:true ~min_fanout_work:0 ()
  in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let fusion = Fuse.analyse g in
  let exe =
    Executor.compile ~runtime:pool ~plan:(Echo_exec.Memplan.plan ~fusion g) g
  in
  for run = 1 to 3 do
    check_bool
      (Printf.sprintf "fused 4-domain run %d bit-identical" run)
      true
      (List.for_all2
         (fun expect t -> bits t = expect)
         reference
         (Executor.eval exe ~feeds))
  done

(* --- the profitability valve of the unified cost model --- *)

let test_profitable_valve () =
  let x = Node.placeholder [| 64; 64 |] in
  let y = Node.variable [| 64; 64 |] in
  let g = Graph.create [ Node.tanh_ (Node.sigmoid (Node.add x y)) ] in
  let unrestricted = Fuse.analyse g in
  check_bool "chain fuses unrestricted" true
    (Fuse.group_count unrestricted > 0);
  (* Default host model: fusing strictly saves dispatches and traffic
     without adding work, so every group survives the valve. *)
  let default_cfg = Fusion.of_runtime Parallel.sequential in
  check_int "default model keeps every group"
    (Fuse.group_count unrestricted)
    (Fuse.group_count (Fuse.analyse ~keep:(Fusion.profitable default_cfg) g));
  (* Exaggerated config: 4-way fan-out, a work gate sitting between the
     members' work (8 * 4096 = 32768 scalar ops for the transcendentals)
     and the fused group's sum (69632), and a ruinous fan-out overhead.
     The merged kernel crosses the gate its members stayed under, so the
     model predicts a loss and the valve unfuses the chain. *)
  let cfg =
    {
      default_cfg with
      Fusion.domains = 4;
      min_fanout_work = 50_000;
      fanout_overhead_s = 10.0;
    }
  in
  check_bool "exaggerated model rejects the group" false
    (List.for_all (Fusion.profitable cfg) (Fuse.groups unrestricted));
  check_int "valve unfuses the chain" 0
    (Fuse.group_count (Fuse.analyse ~keep:(Fusion.profitable cfg) g));
  (* host_graph_time prices the plan it would emit: with the valve biting,
     the fused and unfused predictions coincide. *)
  Alcotest.(check (float 1e-12))
    "rejected plan priced as unfused"
    (Fusion.host_graph_time cfg ~fuse:false g)
    (Fusion.host_graph_time cfg ~fuse:true g)

(* --- the joint (planner, fuse, domains, threshold) search --- *)

let test_fit_exec_search () =
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab = 30;
        embed = 8;
        hidden = 8;
        layers = 1;
        seq_len = 4;
        batch = 2;
        dropout = 0.0;
      }
  in
  let model = lm.Language_model.model in
  let g = (Model.training model).Echo_autodiff.Grad.graph in
  let device = Echo_gpusim.Device.titan_xp in
  match A.fit_exec ~device g ~budget_bytes:max_int with
  | None -> Alcotest.fail "fit_exec found no combo under an unlimited budget"
  | Some choice ->
    check_bool "prediction positive" true (choice.A.predicted_s > 0.0);
    check_bool "domains candidate" true
      (List.mem choice.A.combo.A.domains A.default_domain_candidates);
    check_bool "threshold candidate" true
      (List.mem choice.A.combo.A.blocking_threshold
         A.default_threshold_candidates);
    (* The budget is honoured: ask for one byte and the search must fail
       (every plan's arena is positive). *)
    check_bool "impossible budget refused" true
      (A.fit_exec ~device g ~budget_bytes:1 = None);
    (* Compiling under the chosen combo reproduces the sequential unfused
       reference bit for bit. *)
    let rng = Rng.create 5 in
    let feeds =
      List.map
        (fun node ->
          ( node,
            Tensor.init (Node.shape node) (fun _ ->
                float_of_int (Rng.int rng 30)) ))
        model.Model.placeholders
      @ Params.bindings model.Model.params
    in
    let g' = choice.A.chosen.A.graph in
    let reference =
      Executor.eval (Executor.compile ~runtime:Parallel.sequential g') ~feeds
    in
    let runtime = A.combo_runtime choice.A.combo in
    Fun.protect ~finally:(fun () -> Parallel.shutdown runtime) @@ fun () ->
    let exe =
      if choice.A.combo.A.fuse then
        Executor.compile ~runtime
          ~plan:(Echo_exec.Memplan.plan ~fusion:(Fuse.analyse g') g')
          g'
      else Executor.compile ~runtime g'
    in
    check_bool "tuned combo bit-identical" true
      (List.for_all2
         (fun a b ->
           Shape.equal (Tensor.shape a) (Tensor.shape b)
           &&
           let ok = ref true in
           for i = 0 to Tensor.numel a - 1 do
             if
               Int64.bits_of_float (Tensor.get1 a i)
               <> Int64.bits_of_float (Tensor.get1 b i)
             then ok := false
           done;
           !ok)
         reference (Executor.eval exe ~feeds))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "parallel",
      [
        t "ECHO_DOMAINS parsing" test_env_domains_parsing;
        t "ECHO_FUSION parsing" test_env_fusion_parsing;
        t "create validation" test_create_validation;
        t "with_config views" test_with_config_views;
        QCheck_alcotest.to_alcotest prop_parallel_for_coverage;
        t "work stealing deterministic" test_stealing_determinism;
        t "fused executor repeated runs" test_executor_repeated_runs_deterministic;
        t "profitability valve" test_profitable_valve;
        t "fit_exec joint search" test_fit_exec_search;
      ] );
  ]
