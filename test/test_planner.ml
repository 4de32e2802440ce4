(* The planner registry and its planners.

   The load-bearing contracts of the pluggable-planner architecture:

   - the registry resolves every policy the rest of the system uses (specs,
     aliases, knobs) and rejects malformed specs with a message, not a
     crash;
   - the dp-bptt segment planner trades frontier bytes for recomputation in
     the direction its knobs promise;
   - every planner name perfbench instantiates resolves, the retired
     [olla-arena] as an alias that compiles exactly as stash-all;
   - the OLLA-style arena solver (E19's placement comparison) never
     regresses from the greedy best-fit plan, is deterministic under a
     fixed seed, and always produces a plan Echo-verify's offset checker
     accepts;
   - the escalation ladder's tail really is ordered by measured overhead;
   - every planner's claimed saving is honest to within its declared
     tolerance;
   - and, above all, every registered planner trains bit-identically to
     the stash-all baseline — recomputation must never change the math. *)

open Echo_tensor
open Echo_models
module Planner = Echo_core.Planner
module Pass = Echo_core.Pass
module Autotune = Echo_core.Autotune

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let dev = Echo_gpusim.Device.titan_xp

let tiny_lm () =
  Language_model.build
    {
      Language_model.ptb_default with
      vocab = 60;
      embed = 12;
      hidden = 12;
      layers = 2;
      seq_len = 6;
      batch = 3;
      dropout = 0.2;
    }

let training_graph model =
  (Echo_compiler.Pipeline.differentiate (Echo_compiler.Pipeline.of_model model))
    .Echo_compiler.Pipeline.autodiff.Echo_autodiff.Grad.graph

let lm_graph = lazy (training_graph (tiny_lm ()).Language_model.model)

let tiny_nmt_graph =
  lazy
    (training_graph
       (Nmt.build
          {
            Nmt.gnmt_like with
            src_vocab = 15;
            tgt_vocab = 15;
            embed = 4;
            hidden = 4;
            enc_layers = 1;
            dec_layers = 1;
            src_len = 3;
            tgt_len = 3;
            batch = 2;
            dropout = 0.1;
          })
       .Nmt.model)

(* ------------------------------------------------------------------ *)
(* Registry *)

let builtin_names =
  [
    "stash-all"; "mirror-all-cheap"; "checkpoint-sqrt"; "dp-bptt"; "echo";
    "echo-cheap"; "echo-noshare"; "echo-notrans"; "recompute-all";
  ]

let test_registry_builtins () =
  let names = List.map (fun p -> p.Planner.name) (Planner.all ()) in
  List.iter
    (fun n -> check_bool (n ^ " registered") true (List.mem n names))
    builtin_names;
  check_bool "find hit" true (Planner.find "echo" <> None);
  check_bool "find miss" true (Planner.find "no-such" = None);
  (* The --policy list rendering mentions every planner and every knob. *)
  let listing = Format.asprintf "%a" Planner.pp_list () in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n -> check_bool (n ^ " listed") true (contains n listing))
    builtin_names;
  check_bool "knobs listed" true (contains "budget-mib" listing)

let test_parse_specs () =
  (match Planner.parse "echo:budget=0.05" with
  | Ok i ->
    check_string "label" "echo(5%)" (Planner.label i);
    check_bool "knob bound" true (Planner.knob_is_set i "budget")
  | Error e -> Alcotest.fail e);
  (match Planner.parse "dp-bptt:slots=8,budget-mib=2" with
  | Ok i ->
    check_int "slots" 8 (int_of_float (Planner.knob_value i "slots"));
    check_int "budget-mib" 2 (int_of_float (Planner.knob_value i "budget-mib"))
  | Error e -> Alcotest.fail e);
  (* Legacy aliases the pre-registry echoc accepted. *)
  (match Planner.parse "mirror-all" with
  | Ok i -> check_string "alias" "mirror-all-cheap" (Planner.label i)
  | Error e -> Alcotest.fail e);
  (match Planner.parse "checkpoint" with
  | Ok i -> check_string "alias" "checkpoint-sqrt" (Planner.label i)
  | Error e -> Alcotest.fail e);
  (match Planner.parse "olla-arena" with
  | Ok i -> check_string "alias" "stash-all" (Planner.label i)
  | Error e -> Alcotest.fail e);
  let is_error = function Error _ -> true | Ok _ -> false in
  check_bool "unknown name" true (is_error (Planner.parse "no-such"));
  check_bool "unknown knob" true (is_error (Planner.parse "echo:slots=3"));
  check_bool "malformed kv" true (is_error (Planner.parse "echo:budget"));
  check_bool "non-numeric" true (is_error (Planner.parse "echo:budget=lots"))

(* The planner names perfbench's compile-zoo instantiates: each must keep
   resolving. [olla-arena] is no planner any more, only an alias whose
   compile is stash-all's: the input graph back, planned once. *)
let benchmark_names =
  [ "stash-all"; "echo"; "checkpoint-sqrt"; "dp-bptt"; "olla-arena" ]

let test_benchmark_names_resolve () =
  List.iter
    (fun name ->
      match Planner.instantiate name with
      | exception Invalid_argument msg -> Alcotest.fail msg
      | _ -> ())
    benchmark_names;
  check_bool "olla-arena is not registered" true
    (Planner.find "olla-arena" = None);
  let g = Lazy.force lm_graph in
  List.iter
    (fun name ->
      let out, r = Pass.run_instance ~device:dev (Planner.instantiate name) g in
      check_bool (name ^ " returns the input graph") true (out == g);
      check_bool (name ^ " plans once") true
        (r.Pass.optimised_mem == r.Pass.baseline_mem))
    [ "stash-all"; "olla-arena" ]

let test_instance_api () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "instantiate unknown raises" true
    (raises (fun () -> Planner.instantiate "no-such"));
  check_bool "unknown knob raises" true
    (raises (fun () -> Planner.instantiate ~knobs:[ ("slots", 1.0) ] "echo"));
  let i = Planner.instantiate "echo" in
  check_bool "default not set" false (Planner.knob_is_set i "budget");
  check_bool "default value" true (Planner.knob_value i "budget" = 0.10);
  let i = Planner.with_knob i "budget" 0.25 in
  check_bool "with_knob sets" true (Planner.knob_is_set i "budget");
  check_string "with_knob label" "echo(25%)" (Planner.label i);
  check_bool "declares" true
    (Planner.declares (Option.get (Planner.find "dp-bptt")) "slots");
  check_bool "not declares" false
    (Planner.declares (Option.get (Planner.find "stash-all")) "slots");
  check_bool "with_knob unknown raises" true
    (raises (fun () -> Planner.with_knob i "slots" 1.0))

(* ------------------------------------------------------------------ *)
(* dp-bptt *)

let claimed inst g =
  let _, report = Pass.run_instance ~device:dev inst g in
  report.Pass.claimed_saving_bytes

let test_dp_bptt_selects () =
  let g = Lazy.force lm_graph in
  let _, report =
    Pass.run_instance ~device:dev (Planner.instantiate "dp-bptt") g
  in
  check_bool "mirrors something" true (report.Pass.mirrored_nodes > 0);
  check_bool "claims a saving" true (report.Pass.claimed_saving_bytes > 0)

let test_dp_bptt_slots_tradeoff () =
  let g = Lazy.force lm_graph in
  (* One segment recomputes everything recomputable (maximal saving); many
     segments keep a bigger stashed frontier (smaller saving). *)
  let one = claimed (Planner.instantiate ~knobs:[ ("slots", 1.0) ] "dp-bptt") g in
  let many =
    claimed (Planner.instantiate ~knobs:[ ("slots", 16.0) ] "dp-bptt") g
  in
  check_bool "k=1 claims at least as much as k=16" true (one >= many);
  check_bool "k=16 still claims something" true (many >= 0)

let test_dp_bptt_budget_knob () =
  let g = Lazy.force lm_graph in
  (* A tiny budget forces the maximal-saving segmentation; a huge one admits
     the cheapest (most segments, least recomputation). *)
  let tight =
    claimed
      (Planner.instantiate ~knobs:[ ("budget-mib", 0.0001) ] "dp-bptt")
      g
  in
  let loose =
    claimed
      (Planner.instantiate ~knobs:[ ("budget-mib", 10000.0) ] "dp-bptt")
      g
  in
  check_bool "tight budget claims >= loose budget" true (tight >= loose)

(* ------------------------------------------------------------------ *)
(* Arena_solver: E19's placement comparison *)

let greedy_offsets g = Echo_exec.Assign.of_plan g (Echo_exec.Memplan.plan g)

let test_arena_solver_beats_greedy () =
  List.iter
    (fun g ->
      let greedy = greedy_offsets g in
      let solved = Echo_exec.Arena_solver.solve g in
      check_bool "solved <= greedy" true
        (Echo_exec.Assign.arena_size solved
        <= Echo_exec.Assign.arena_size greedy);
      check_bool "improvement >= 0" true
        (Echo_exec.Arena_solver.improvement ~greedy ~solved >= 0.0);
      (* The solved plan must satisfy the planner's own soundness check and
         Echo-verify's independent offset checker. *)
      check_bool "Assign.check clean" false
        (Echo_diag.Report.has_errors (Echo_exec.Assign.check solved));
      check_bool "Echo-verify accepts" false
        (Echo_diag.Report.has_errors
           (Echo_analysis.Verify.lint ~offsets:solved g)))
    [ Lazy.force lm_graph; Lazy.force tiny_nmt_graph ]

let test_arena_solver_deterministic () =
  let g = Lazy.force lm_graph in
  let slots ?config () =
    Echo_exec.Assign.slots (Echo_exec.Arena_solver.solve ?config g)
  in
  check_bool "same seed, same plan" true (slots () = slots ());
  (* A different seed may find a different plan, but it must stay sound and
     never regress from greedy. *)
  let config = { Echo_exec.Arena_solver.default with seed = 7 } in
  let other = Echo_exec.Arena_solver.solve ~config g in
  check_bool "other seed sound" false
    (Echo_diag.Report.has_errors (Echo_exec.Assign.check other));
  check_bool "other seed <= greedy" true
    (Echo_exec.Assign.arena_size other
    <= Echo_exec.Assign.arena_size (greedy_offsets g))

(* ------------------------------------------------------------------ *)
(* The echo family's reuse path. [Pass.run_instance] hands the planner the
   baseline plan, and the ladder hands back the rewrite it measured, so the
   pass neither re-mirrors nor re-plans. The reference is the pass as it
   ran before: the ladder planned every rung from scratch and returned a
   bare selection, which the pass mirrored and planned again. *)
let reference_outcome inst graph =
  let open Echo_core in
  let module Memplan = Echo_exec.Memplan in
  let budget = Planner.knob_value inst "budget" in
  let selection, share =
    match inst.Planner.planner.Planner.name with
    | ("echo" | "echo-cheap") as name ->
      let cheap_only = name = "echo-cheap" in
      let baseline_peak = (Memplan.plan graph).Memplan.live_peak_bytes in
      let measure b =
        let sel = Select.echo ~cheap_only dev graph ~overhead_budget:b in
        if Echo_ir.Ids.Set.is_empty sel.Select.mirror_ids then (sel, baseline_peak)
        else
          ( sel,
            (Memplan.plan
               (Rewrite.mirror ~share:true graph ~mirror_ids:sel.Select.mirror_ids))
              .Memplan.live_peak_bytes )
      in
      ( fst
          (List.fold_left
             (fun ((_, best_peak) as best) b ->
               if b < 0.002 then best
               else
                 let sel, peak = measure b in
                 if peak < best_peak then (sel, peak) else best)
             (Select.empty, baseline_peak)
             [ budget; budget /. 2.0; budget /. 4.0; budget /. 8.0 ]),
        true )
    | "echo-noshare" -> (Select.echo dev graph ~overhead_budget:budget, false)
    | "echo-notrans" ->
      (Select.echo ~transitive:false dev graph ~overhead_budget:budget, true)
    | other -> Alcotest.failf "no reference for %s" other
  in
  let rewritten =
    if Echo_ir.Ids.Set.is_empty selection.Select.mirror_ids then graph
    else Rewrite.mirror ~share graph ~mirror_ids:selection.Select.mirror_ids
  in
  (selection, rewritten)

let test_echo_family_reuse () =
  let open Echo_core in
  let module Memplan = Echo_exec.Memplan in
  let module Costmodel = Echo_gpusim.Costmodel in
  let signature g =
    List.map
      (fun n -> (Echo_ir.Op.key (Echo_ir.Node.op n), Echo_ir.Node.name n))
      (Echo_ir.Graph.nodes g)
  in
  let family =
    List.filter
      (fun p -> String.length p.Planner.name >= 4 && String.sub p.Planner.name 0 4 = "echo")
      (Planner.all ())
  in
  check_int "four echo-family planners" 4 (List.length family);
  let ladder_rewrites = ref 0 in
  List.iter
    (fun model ->
      let graph = (Model.training model).Echo_autodiff.Grad.graph in
      List.iter
        (fun p ->
          List.iter
            (fun budget ->
              let inst = Planner.instantiate ~knobs:[ ("budget", budget) ] p.Planner.name in
              let what k =
                Printf.sprintf "%s %s %s" model.Model.name (Planner.label inst) k
              in
              let optimised, r = Pass.run_instance ~device:dev inst graph in
              let sel, expected = reference_outcome inst graph in
              if r.Pass.mirrored_nodes > 0 && List.mem p.Planner.name [ "echo"; "echo-cheap" ]
              then incr ladder_rewrites;
              check_int (what "mirrored")
                (Echo_ir.Ids.Set.cardinal sel.Select.mirror_ids)
                r.Pass.mirrored_nodes;
              check_int (what "clones") (Rewrite.clone_count expected) r.Pass.clone_nodes;
              check_int (what "claimed bytes") sel.Select.claimed_saving_bytes
                r.Pass.claimed_saving_bytes;
              check_bool (what "claimed cost") true
                (sel.Select.claimed_cost_s = r.Pass.claimed_cost_s);
              check_bool (what "baseline time") true
                (Costmodel.graph_time dev graph = r.Pass.baseline_time_s);
              check_bool (what "optimised time") true
                (Costmodel.graph_time dev expected = r.Pass.optimised_time_s);
              check_bool (what "same rewrite") true (signature expected = signature optimised);
              check_bool (what "baseline plan") true (Memplan.plan graph = r.Pass.baseline_mem);
              check_bool (what "optimised plan, field for field") true
                (Memplan.plan optimised = r.Pass.optimised_mem))
            [ 0.10; 0.30 ])
        family)
    (Test_ir.small_zoo ());
  check_bool "the ladder handed over a rewrite" true (!ladder_rewrites > 0)

(* fit_ladder *)

let test_ladder_composition () =
  let labels = List.map Planner.label Autotune.fit_ladder in
  check_string "baseline first" "stash-all" (List.hd labels);
  List.iter
    (fun l -> check_bool (l ^ " on the ladder") true (List.mem l labels))
    [ "checkpoint-sqrt"; "dp-bptt"; "recompute-all" ];
  check_int "one echo rung per escalation budget"
    (List.length Autotune.escalation)
    (List.length
       (List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "echo(")
          labels))

let test_ladder_overhead_monotone () =
  let g = Lazy.force lm_graph in
  let overhead inst =
    Pass.overhead (Autotune.run_one ~device:dev inst g).Autotune.report
  in
  let by_label want =
    overhead
      (List.find (fun i -> Planner.label i = want) Autotune.fit_ladder)
  in
  check_bool "baseline free" true (by_label "stash-all" = 0.0);
  (* Every Echo rung respects its declared budget — that is what makes
     escalation through the rungs cheapest-first. *)
  List.iter
    (fun b ->
      let o =
        overhead (Planner.instantiate ~knobs:[ ("budget", b) ] "echo")
      in
      check_bool
        (Printf.sprintf "echo(%g) overhead %.4f within budget" b o)
        true
        (o <= b +. 1e-9))
    Autotune.escalation;
  (* The tail is ordered by measured overhead. *)
  let ck = by_label "checkpoint-sqrt"
  and dp = by_label "dp-bptt"
  and ra = by_label "recompute-all" in
  check_bool "checkpoint-sqrt <= dp-bptt" true (ck <= dp);
  check_bool "dp-bptt <= recompute-all" true (dp <= ra)

(* ------------------------------------------------------------------ *)
(* Estimator honesty *)

let test_claims_honest () =
  List.iter
    (fun g ->
      let baseline = (Echo_exec.Memplan.plan g).Echo_exec.Memplan.stash_bytes in
      List.iter
        (fun p ->
          let inst = Planner.instantiate p.Planner.name in
          let _, report = Pass.run_instance ~device:dev inst g in
          let measured =
            baseline
            - report.Pass.optimised_mem.Echo_exec.Memplan.stash_bytes
          in
          let err = abs (report.Pass.claimed_saving_bytes - measured) in
          let allowed =
            int_of_float (p.Planner.claim_tolerance *. float_of_int baseline)
          in
          check_bool
            (Printf.sprintf
               "%s claim honest: |%d - %d| = %d <= %.0f%% of %d"
               (Planner.label inst) report.Pass.claimed_saving_bytes measured
               err
               (100.0 *. p.Planner.claim_tolerance)
               baseline)
            true (err <= allowed))
        (Planner.all ()))
    [ Lazy.force lm_graph; Lazy.force tiny_nmt_graph ]

(* ------------------------------------------------------------------ *)
(* Differential: every planner trains bit-identically to stash-all *)

let train_losses ~planner ~runtime ~fuse lm =
  let graph = training_graph lm.Language_model.model in
  let cfg = { Language_model.ptb_default with vocab = 60 } in
  let stream =
    Echo_workloads.Corpus.generate ~seed:5 ~vocab:cfg.Language_model.vocab
      ~length:4_000
  in
  let steps = 4 in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      (Echo_workloads.Corpus.lm_batches stream ~batch:3 ~seq_len:6 ~steps)
  in
  (Echo_train.Loop.train ~graph
     ~params:(Params.bindings lm.Language_model.model.Model.params)
     ~optimizer:
       (Echo_train.Optimizer.create (Echo_train.Optimizer.Sgd { lr = 0.5 }))
     ~clip_norm:5.0 ?planner ~runtime ~fuse ~batches ())
    .Echo_train.Loop.losses

let test_all_planners_differential () =
  let lm = tiny_lm () in
  let golden =
    train_losses ~planner:None ~runtime:Parallel.sequential ~fuse:false lm
  in
  check_int "golden ran every step" 4 (List.length golden);
  let check_config ~runtime ~fuse tag =
    List.iter
      (fun p ->
        let inst = Planner.instantiate p.Planner.name in
        let losses = train_losses ~planner:(Some inst) ~runtime ~fuse lm in
        check_bool
          (Printf.sprintf "%s losses bit-identical to stash-all (%s)"
             (Planner.label inst) tag)
          true
          (List.length losses = List.length golden
          && List.for_all2 (fun a b -> Float.equal a b) golden losses))
      (Planner.all ())
  in
  check_config ~runtime:Parallel.sequential ~fuse:false "seq, unfused";
  check_config ~runtime:Parallel.sequential ~fuse:true "seq, fused";
  List.iter
    (fun domains ->
      let runtime = Parallel.create ~domains () in
      check_config ~runtime ~fuse:false
        (Printf.sprintf "%dd, unfused" domains);
      check_config ~runtime ~fuse:true (Printf.sprintf "%dd, fused" domains);
      Parallel.shutdown runtime)
    [ 2; 4 ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "planners.registry",
      [
        t "builtins registered and listed" test_registry_builtins;
        t "spec parsing" test_parse_specs;
        t "instance knob API" test_instance_api;
        t "benchmark planner names resolve" test_benchmark_names_resolve;
      ] );
    ( "planners.dp-bptt",
      [
        t "selects and claims" test_dp_bptt_selects;
        t "slots trade frontier for recompute" test_dp_bptt_slots_tradeoff;
        t "budget knob monotone" test_dp_bptt_budget_knob;
      ] );
    ( "planners.arena-solver",
      [
        t "never regresses from greedy, verifies"
          test_arena_solver_beats_greedy;
        t "deterministic under a seed" test_arena_solver_deterministic;
      ] );
    ( "planners.ladder",
      [
        t "composition" test_ladder_composition;
        t "overhead monotone" test_ladder_overhead_monotone;
        t "echo family reuses its measured rewrite" test_echo_family_reuse;
      ] );
    ( "planners.claims",
      [ t "claimed saving within declared tolerance" test_claims_honest ] );
    ( "planners.differential",
      [
        t "every planner == stash-all at 1/2/4 domains, fused and unfused"
          test_all_planners_differential;
      ] );
  ]
