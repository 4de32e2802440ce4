(* echoc: the Echo compiler driver.

   Builds one of the model-zoo training graphs, applies a recomputation
   policy, and reports simulated-GPU footprint and iteration time. Examples:

     dune exec bin/echoc.exe -- --model lm --policy echo --budget 0.1
     dune exec bin/echoc.exe -- --model nmt --batch 128 --all --breakdown
     dune exec bin/echoc.exe -- --model transformer --policy checkpoint

   With --train N it instead drives the fault-tolerant training loop for N
   steps on a synthetic corpus, with optional budget enforcement, fault
   injection and checkpoint/resume:

     dune exec bin/echoc.exe -- --train 20 -H 24 -b 6 -t 10 \
       --checkpoint run.ckpt --checkpoint-every 5
     dune exec bin/echoc.exe -- --train 20 -H 24 -b 6 -t 10 \
       --checkpoint run.ckpt --resume
     dune exec bin/echoc.exe -- --train 20 -H 24 --faults "oom@3=50%" *)

open Cmdliner
open Echo_models
open Echo_core
open Echo_exec
module Pipeline = Echo_compiler.Pipeline

(* Bad input at a validated entry point: one line on stderr naming the
   offending flag or value, exit status 2. *)
let die_as prefix fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (prefix ^ ": " ^ msg);
      exit 2)
    fmt

let die fmt = die_as "echoc" fmt

type model_choice = Lm | Peephole_lm | Gru_lm | Rnn_lm | Nmt_model | Ds2 | Transformer_model

let build_graph choice ~batch ~seq_len ~hidden ~layers =
  let lm cell =
    let d = Language_model.ptb_default in
    let cfg =
      {
        d with
        Language_model.cell;
        batch = Option.value batch ~default:d.Language_model.batch;
        seq_len = Option.value seq_len ~default:d.Language_model.seq_len;
        hidden = Option.value hidden ~default:d.Language_model.hidden;
        embed = Option.value hidden ~default:d.Language_model.embed;
        layers = Option.value layers ~default:d.Language_model.layers;
      }
    in
    (Language_model.build cfg).Language_model.model
  in
  let model =
    match choice with
    | Lm -> lm Recurrent.Lstm
    | Peephole_lm -> lm Recurrent.Peephole
    | Gru_lm -> lm Recurrent.Gru
    | Rnn_lm -> lm Recurrent.Vanilla
    | Nmt_model ->
      let d = Nmt.gnmt_like in
      let cfg =
        {
          d with
          Nmt.batch = Option.value batch ~default:d.Nmt.batch;
          src_len = Option.value seq_len ~default:d.Nmt.src_len;
          tgt_len = Option.value seq_len ~default:d.Nmt.tgt_len;
          hidden = Option.value hidden ~default:d.Nmt.hidden;
          embed = Option.value hidden ~default:d.Nmt.embed;
          enc_layers = Option.value layers ~default:d.Nmt.enc_layers;
          dec_layers = Option.value layers ~default:d.Nmt.dec_layers;
        }
      in
      (Nmt.build cfg).Nmt.model
    | Ds2 ->
      let d = Deepspeech.ds2_like in
      let cfg =
        {
          d with
          Deepspeech.batch = Option.value batch ~default:d.Deepspeech.batch;
          time = Option.value seq_len ~default:d.Deepspeech.time;
          rnn_hidden = Option.value hidden ~default:d.Deepspeech.rnn_hidden;
          rnn_layers = Option.value layers ~default:d.Deepspeech.rnn_layers;
        }
      in
      (Deepspeech.build cfg).Deepspeech.model
    | Transformer_model ->
      let d = Transformer.base_like in
      let cfg =
        {
          d with
          Transformer.batch = Option.value batch ~default:d.Transformer.batch;
          seq_len = Option.value seq_len ~default:d.Transformer.seq_len;
          d_model = Option.value hidden ~default:d.Transformer.d_model;
          layers = Option.value layers ~default:d.Transformer.layers;
        }
      in
      (Transformer.build cfg).Transformer.model
  in
  model

(* Resolve the planner the run uses: the --policy flag if given, else the
   ECHO_POLICY environment variable, else [default]. Specs go through the
   registry parser, so `--policy dp-bptt:slots=8` and every future
   registered planner work without touching this driver. *)
let resolve_planner ?flag ~budget default =
  let spec =
    match flag with
    | Some s -> Some s
    | None -> Sys.getenv_opt "ECHO_POLICY"
  in
  let spec = Option.value spec ~default in
  match Echo_core.Planner.parse spec with
  | Error msg -> die "%s" msg
  | Ok instance -> begin
    (* The legacy --budget flag feeds any planner that declares a [budget]
       knob the spec itself left unbound (spec knobs win). *)
    match budget with
    | Some b
      when Echo_core.Planner.declares instance.Echo_core.Planner.planner
             "budget"
           && not (Echo_core.Planner.knob_is_set instance "budget") ->
      Echo_core.Planner.with_knob instance "budget" b
    | _ -> instance
  end

(* --train: drive the fault-tolerant training loop instead of the
   policy-report path. LM family only (the synthetic corpus is a token
   stream). *)
let train_mode model_choice ~batch ~seq_len ~hidden ~layers ~vocab ~steps
    ~device ~planner
    ~runtime ~budget_bytes ~faults_spec ~checkpoint_path ~checkpoint_every
    ~resume ~no_fuse ~tune_exec ~corpus_file ~sanitize =
  (* Parse the fault plan first: a malformed --faults/ECHO_FAULTS entry is a
     configuration error and must be reported before any model is built or
     compiled, not steps into the run. *)
  let faults_source =
    if faults_spec = None then "ECHO_FAULTS" else "--faults"
  in
  let faults =
    try
      match faults_spec with
      | Some s -> Echo_runtime.Fault.parse s
      | None -> Echo_runtime.Fault.of_env ()
    with Echo_runtime.Fault.Bad_spec msg ->
      if faults_spec = None then die "%s" msg else die "--faults %s" msg
  in
  let cell =
    match model_choice with
    | Lm -> Recurrent.Lstm
    | Peephole_lm -> Recurrent.Peephole
    | Gru_lm -> Recurrent.Gru
    | Rnn_lm -> Recurrent.Vanilla
    | Nmt_model | Ds2 | Transformer_model ->
      die "--train drives the LM family only (lm, peephole-lm, gru-lm, rnn-lm)"
  in
  (* --corpus: a real PTB-style text file replaces the synthetic stream and
     fixes the vocabulary; a conflicting --vocab is a configuration error. *)
  if corpus_file <> None && vocab <> None then
    die "--vocab conflicts with --corpus (the corpus fixes the vocabulary)";
  let real_corpus =
    Option.map
      (fun path ->
        let c =
          try Echo_workloads.Corpus.load_text path
          with Invalid_argument msg -> die "--corpus: %s" msg
        in
        (path, c))
      corpus_file
  in
  let d = Language_model.ptb_default in
  let cfg =
    {
      d with
      Language_model.cell;
      batch = Option.value batch ~default:d.Language_model.batch;
      seq_len = Option.value seq_len ~default:d.Language_model.seq_len;
      hidden = Option.value hidden ~default:d.Language_model.hidden;
      embed = Option.value hidden ~default:d.Language_model.embed;
      layers = Option.value layers ~default:d.Language_model.layers;
      vocab =
        (match real_corpus with
        | Some (_, c) -> Echo_workloads.Corpus.vocab c
        | None -> Option.value vocab ~default:d.Language_model.vocab);
    }
  in
  let corpus =
    match real_corpus with
    | Some (_, c) -> c
    | None ->
      Echo_workloads.Corpus.generate ~seed:5 ~vocab:cfg.Language_model.vocab
        ~length:
          (((steps + 2) * cfg.Language_model.batch * cfg.Language_model.seq_len)
          + 1)
  in
  (* Checked before the model is built: a corpus that cannot fill the run
     is bad input, reported on its own. *)
  let raw =
    try
      Echo_workloads.Corpus.lm_batches corpus ~batch:cfg.Language_model.batch
        ~seq_len:cfg.Language_model.seq_len ~steps
    with Invalid_argument _ ->
      die
        "corpus too short: %d token(s) cannot fill %d step(s) of %d x %d — use \
         a longer file or fewer/smaller batches"
        (Echo_workloads.Corpus.length corpus)
        steps cfg.Language_model.batch cfg.Language_model.seq_len
  in
  Option.iter
    (fun (path, c) ->
      Format.printf "corpus %s: %d tokens, vocabulary %d@." path
        (Echo_workloads.Corpus.length c)
        (Echo_workloads.Corpus.vocab c))
    real_corpus;
  let lm = Language_model.build cfg in
  Format.printf "%a@." Model.describe lm.Language_model.model;
  let training = Model.training lm.Language_model.model in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      raw
  in
  let checkpoint =
    Option.map
      (fun path -> { Echo_train.Loop.path; every = checkpoint_every; resume })
      checkpoint_path
  in
  (* --tune-exec: joint (planner, fuse, domains) search over the escalation
     ladder with the host cost model, replacing the hand-picked knobs with
     the predicted-fastest combination that fits the budget. *)
  let runtime, planner, fuse =
    if not tune_exec then
      (runtime, planner, if no_fuse then Some false else None)
    else begin
      let module A = Echo_core.Autotune in
      match
        A.fit_exec ~device training.Echo_autodiff.Grad.graph
          ~budget_bytes:(Option.value budget_bytes ~default:max_int)
      with
      | None ->
        die "--tune-exec: no plan on the escalation ladder fits --budget-bytes"
      | Some choice ->
        let c = choice.A.combo in
        Format.printf
          "tuned exec: policy=%s fuse=%b domains=%d (predicted %.3f \
           ms/step, arena %d bytes)@."
          (A.label choice.A.chosen) c.A.fuse c.A.domains
          (choice.A.predicted_s *. 1e3)
          choice.A.arena_bytes;
        (A.combo_runtime c, Some choice.A.chosen.A.planner, Some c.A.fuse)
    end
  in
  let train () =
    Echo_train.Loop.train ~graph:training.Echo_autodiff.Grad.graph
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer:(Echo_train.Optimizer.create (Echo_train.Optimizer.Sgd { lr = 0.5 }))
      ~clip_norm:5.0
      ~on_step:(fun s ->
        Format.printf "step %4d  loss %.6f  ppl %.2f  |g| %.4f@."
          s.Echo_train.Loop.step s.Echo_train.Loop.loss
          (Echo_train.Loop.perplexity s.Echo_train.Loop.loss)
          s.Echo_train.Loop.grad_norm)
      ~on_event:(fun e ->
        Format.printf "[recovery] %s@." (Echo_runtime.Event.to_string e))
      ?budget_bytes ~faults ?checkpoint ~device ~runtime ?fuse ?sanitize
      ?planner ~batches ()
  in
  let result =
    try train () with
    | Echo_runtime.Fault.Bad_spec msg -> die "%s %s" faults_source msg
    | Echo_compiler.Executor.Budget_exceeded { requested_bytes; budget_bytes }
    ->
      die
        "out of memory: the run needs at least %d bytes but the device allows \
         %d, and no policy on the escalation ladder (up to recompute-all) \
         fits — shrink the model or raise the budget"
        requested_bytes budget_bytes
  in
  match List.rev result.Echo_train.Loop.losses with
  | final :: _ ->
    Format.printf "trained %d step(s); final loss %.6f (ppl %.2f)@."
      (List.length result.Echo_train.Loop.losses)
      final
      (Echo_train.Loop.perplexity final)
  | [] -> Format.printf "trained 0 steps (all skipped)@."

(* --campaign: run a fault-injection campaign and print the per-(model x
   planner) resilience report. The sweep is scheduled across the same pool
   -j configures; the report itself is domain-count independent. *)
let campaign_mode ~pool spec_text =
  let module Campaign = Echo_campaign.Campaign in
  match Campaign.parse_spec spec_text with
  | Error msg -> die "--campaign: %s" msg
  | Ok spec ->
    let report = Campaign.run ~pool spec in
    print_string (Campaign.summary report);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Campaign.summary report);
        output_string oc "\n";
        List.iter
          (fun line ->
            output_string oc line;
            output_string oc "\n")
          (Campaign.detail_lines report);
        close_out oc;
        Format.printf "wrote %s@." path)
      spec.Campaign.out

(* --lint: run the Echo-verify checkers over every stage artifact of the
   compiled pipeline and print the collected diagnostics. --corrupt seeds
   one deliberate corruption first, demonstrating (and letting scripts
   assert, with --lint-strict's nonzero exit) that the checker for that
   artifact actually fires. *)
let corruptions =
  [
    "schedule"; "slot-overlap"; "slot-escape"; "alias"; "inplace-donor";
    "clone-seed"; "clone-hint"; "fusion-region"; "partition-overlap";
    "partition-gap"; "lifetime"; "alias-offsets"; "fused-interior";
  ]

let lint_policy ~runtime ~sanitize ~no_fuse ~corrupt label rw =
  let module Verify = Echo_analysis.Verify in
  let module Mutate = Echo_analysis.Mutate in
  let module Race = Echo_analysis.Race in
  let planned = Pipeline.plan rw in
  let fused =
    if no_fuse then Pipeline.fuse ~enabled:false planned
    else Pipeline.fuse planned
  in
  let exe = Pipeline.compile ~runtime ?sanitize fused in
  let graph = fused.Pipeline.graph in
  let report =
    match corrupt with
    | None ->
      let report = Pipeline.verify (Pipeline.Executable exe) in
      Echo_diag.Report.append ~into:report (Pipeline.race_verify exe);
      report
    | Some kind ->
      (* Layout corruptions work on the unfused plan, the layout an
         unfused executor runs: the mutators reason about unfused liveness
         when picking their site. *)
      let unfused = planned.Pipeline.memplan in
      let need what = function
        | Some v -> v
        | None ->
          die "--corrupt %s: this graph offers no site for that corruption (%s)"
            kind what
      in
      (match kind with
      | "schedule" ->
        let schedule = need "no node with inputs" (Mutate.swap_schedule graph) in
        Verify.lint ~schedule graph
      | "slot-overlap" ->
        let plan =
          need "no pair of concurrent slots" (Mutate.overlap_slots graph unfused)
        in
        Verify.lint ~plan graph
      | "slot-escape" ->
        let plan = need "no slots at all" (Mutate.escape_slot unfused) in
        Verify.lint ~plan graph
      | "alias" ->
        (* A partial overlap, where [slot-overlap] makes two ranges
           coincide. *)
        let plan =
          need "no value defined inside another's live range"
            (Mutate.overlap_partially graph unfused)
        in
        Verify.lint ~plan graph
      | "inplace-donor" ->
        let plan =
          need "no non-elementwise consumer of a same-size dying input"
            (Mutate.retarget_inplace graph unfused)
        in
        Verify.lint ~plan graph
      | "clone-seed" ->
        let graph =
          need "no DropoutMask recomputation clone (pick a policy that \
                mirrors dropout)"
            (Mutate.reseed_clone graph)
        in
        Verify.lint graph
      | "clone-hint" ->
        let graph =
          need "no recomputation clone (pick a recomputing policy)"
            (Mutate.bad_clone_hint graph)
        in
        Verify.lint graph
      | "fusion-region" ->
        let fusion =
          need "no backward elementwise node reading a same-shape forward one"
            (Mutate.cross_region_group graph)
        in
        Verify.lint ~fusion graph
      | "partition-overlap" | "partition-gap" ->
        (* The corrupted chunk formula is only consulted where the runtime
           actually fans out; force a 2-way oversubscribed fan-out so the
           demonstration fires on any machine, single-core CI included. *)
        let shift =
          if kind = "partition-overlap" then `Overlap else `Gap
        in
        let fanout =
          Echo_tensor.Parallel.create ~domains:2 ~oversubscribe:true
            ~min_fanout_work:0 ()
        in
        let report =
          Race.check_kernels ~chunk_bounds:(Mutate.shift_partition shift)
            ~plan:(Echo_compiler.Executor.plan (Pipeline.executor exe))
            ~runtime:fanout graph
        in
        Echo_tensor.Parallel.shutdown fanout;
        report
      | "lifetime" ->
        (* Shrink a lifetime in the plan the compiled executor frees
           against. *)
        let plan = Echo_compiler.Executor.plan (Pipeline.executor exe) in
        let intervals =
          need "no value read after its definition step"
            (Mutate.shrink_lifetime (Memplan.intervals graph plan))
        in
        Race.check_lifetimes ?fusion:plan.Memplan.fusion ~intervals graph
      | "alias-offsets" ->
        (* Shift a range of the plan the compiled executor runs so it
           overlaps part of a live one. *)
        let plan = Echo_compiler.Executor.plan (Pipeline.executor exe) in
        let corrupted =
          need "no value defined inside another's live range"
            (Mutate.overlap_partially graph plan)
        in
        Race.check_addresses graph corrupted
      | "fused-interior" ->
        let plan =
          need "no fusion plan (drop --no-fuse)" fused.Pipeline.fusion
        in
        let widened =
          need "no single-input interior in any fused group"
            (Mutate.widen_fused_interior plan)
        in
        Race.check_fused widened
      | _ -> assert false (* [run] validated --corrupt against [corruptions] *))
  in
  List.iter
    (fun d -> Format.printf "%a@." Echo_diag.pp d)
    (Echo_diag.Report.diags report);
  Format.printf "lint (%s): %a@." label Echo_diag.Report.pp_summary report;
  Echo_diag.Report.has_errors report

let run model_choice batch seq_len hidden layers policy budget all breakdown
    profile optimize dot_file trace_file save_file load_file device_name
    domains compile train_steps vocab budget_bytes faults_spec checkpoint_path
    checkpoint_every resume no_fuse tune_exec dump_fusion lint lint_strict
    corrupt campaign corpus_file sanitize_spec =
  let device =
    match Echo_gpusim.Device.by_name device_name with
    | Some d -> d
    | None ->
      die "unknown device %S (one of %s)" device_name
        (String.concat ", "
           (List.map
              (fun d -> d.Echo_gpusim.Device.name)
              Echo_gpusim.Device.all))
  in
  (* Validate --sanitize before anything is built: a typo must be a loud
     error naming the flag and the value, never a silent fallback. *)
  let sanitize =
    Option.map
      (fun v ->
        try Echo_analysis.Sanitize.mode_of_string ~source:"--sanitize" v
        with Invalid_argument msg -> die "%s" msg)
      sanitize_spec
  in
  (* Likewise --corrupt: an unknown kind is reported before any model is
     built and compiled. *)
  Option.iter
    (fun kind ->
      if not (List.mem kind corruptions) then
        die "--corrupt: unknown corruption %S (one of %s)" kind
          (String.concat ", " corruptions))
    corrupt;
  (* The kernel runtime is process-wide: set it here once and every
     subsequent [Pipeline.compile] (with no explicit [?runtime]) uses it. *)
  let runtime =
    match domains with
    | Some d -> Echo_tensor.Parallel.set_default_domains d
    | None -> Echo_tensor.Parallel.default ()
  in
  (* --policy list: print the registry (name, description, knobs) and stop
     before any model building — this is how scripts and the README table
     enumerate what the build supports. *)
  if policy = Some "list" then
    Format.printf "%a@." Echo_core.Planner.pp_list ()
  else match campaign with
  | Some spec_text -> campaign_mode ~pool:runtime spec_text
  | None ->
  (* The user picked a planner explicitly (flag or ECHO_POLICY env); when
     neither is given, --train keeps its historical default (no rewrite)
     and the report path defaults to echo. *)
  let explicit = policy <> None || Sys.getenv_opt "ECHO_POLICY" <> None in
  match train_steps with
  | Some steps ->
    let planner =
      if explicit then Some (resolve_planner ?flag:policy ~budget "echo")
      else None
    in
    train_mode model_choice ~batch ~seq_len ~hidden ~layers ~vocab ~steps
      ~device ~planner ~runtime ~budget_bytes ~faults_spec ~checkpoint_path
      ~checkpoint_every ~resume ~no_fuse ~tune_exec ~corpus_file ~sanitize
  | None ->
  if corpus_file <> None then
    die "--corpus only applies to --train (nothing else reads batches)";
  let planners =
    if all then Pass.default_instances
    else [ resolve_planner ?flag:policy ~budget "echo" ]
  in
  if compile then
    Format.printf "kernel runtime: %d domain(s)@."
      (Echo_tensor.Parallel.domains runtime);
  (* Stage 1-3 of the compilation pipeline: source -> training -> optimized.
     A serialized graph enters the pipeline after the autodiff stage; the
     zoo model is only built when no graph is loaded. *)
  let training =
    match load_file with
    | Some path ->
      let g =
        try Echo_ir.Serial.of_file path with
        | Sys_error msg -> die "--load: %s" msg
        | Echo_ir.Serial.Parse_error msg -> die "--load %s: %s" path msg
      in
      Format.printf "loaded %s@." path;
      Pipeline.of_training_graph ~name:path g
    | None ->
      let model = build_graph model_choice ~batch ~seq_len ~hidden ~layers in
      Format.printf "%a@." Model.describe model;
      Pipeline.differentiate (Pipeline.of_model model)
  in
  Format.printf "training graph: %a@." Echo_ir.Graph.pp_stats
    training.Pipeline.autodiff.Echo_autodiff.Grad.graph;
  let optimized = Pipeline.optimize ~enabled:optimize training in
  (match optimized.Pipeline.opt_stats with
  | Some stats -> Format.printf "optimised: %a@." Echo_opt.Pipeline.pp_stats stats
  | None -> ());
  let lint = lint || lint_strict || corrupt <> None in
  let lint_failed = ref false in
  List.iter
    (fun inst ->
      (* Stage 4: the recomputation pass, with baseline + optimised
         measurement. *)
      let rw = Pipeline.rewrite ~device ~planner:inst optimized in
      let report = rw.Pipeline.report in
      let rewritten = rw.Pipeline.graph in
      Format.printf "%a@." Pass.pp_report report;
      if dump_fusion then begin
        let fp = Echo_ir.Fuse.analyse rewritten in
        Format.printf "fusion groups (%s):@.%a@."
          (Echo_core.Planner.label inst)
          Echo_ir.Fuse.pp_plan fp
      end;
      if compile then begin
        (* Stage 5-7: plan + fuse + lower to the slot executor on the
           selected kernel runtime, and report what came out. *)
        let planned = Pipeline.plan rw in
        let fused =
          if no_fuse then Pipeline.fuse ~enabled:false planned
          else Pipeline.fuse planned
        in
        let exe = Pipeline.compile ~runtime ?sanitize fused in
        Format.printf "%a@." Pipeline.describe exe
      end;
      if lint then
        if
          lint_policy ~runtime ~sanitize ~no_fuse ~corrupt
            (Echo_core.Planner.label inst)
            rw
        then lint_failed := true;
      if breakdown then
        Format.printf "%a" Footprint.pp_breakdown report.Pass.optimised_mem;
      if profile then begin
        let tl = Echo_gpusim.Timeline.simulate device rewritten in
        Echo_gpusim.Timeline.pp_profile Format.std_formatter tl;
        Format.printf "launch-overhead share: %.1f%%@."
          (100.0 *. Echo_gpusim.Timeline.launch_share device tl)
      end;
      let write path contents =
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Format.printf "wrote %s@." path
      in
      Option.iter (fun path -> write path (Echo_ir.Graph.to_dot rewritten)) dot_file;
      Option.iter (fun path -> Echo_ir.Serial.to_file rewritten path;
                               Format.printf "wrote %s@." path) save_file;
      Option.iter
        (fun path ->
          let tl = Echo_gpusim.Timeline.simulate device rewritten in
          write path (Echo_gpusim.Timeline.to_chrome_trace tl))
        trace_file)
    planners;
  if lint_strict && !lint_failed then exit 1

let model_conv =
  Arg.enum
    [
      ("lm", Lm);
      ("peephole-lm", Peephole_lm);
      ("gru-lm", Gru_lm);
      ("rnn-lm", Rnn_lm);
      ("nmt", Nmt_model);
      ("ds2", Ds2);
      ("transformer", Transformer_model);
    ]

let main_term =
  let model =
    Arg.(value & opt model_conv Lm & info [ "m"; "model" ] ~doc:"Model to compile.")
  in
  let batch = Arg.(value & opt (some int) None & info [ "b"; "batch" ] ~doc:"Batch size.") in
  let seq_len = Arg.(value & opt (some int) None & info [ "t"; "seq-len" ] ~doc:"Sequence length.") in
  let hidden = Arg.(value & opt (some int) None & info [ "H"; "hidden" ] ~doc:"Hidden dimension.") in
  let layers = Arg.(value & opt (some int) None & info [ "l"; "layers" ] ~doc:"Layer count.") in
  let policy =
    Arg.(
      value & opt (some string) None
      & info [ "p"; "policy" ]
          ~doc:
            "Recomputation planner, resolved through the registry: \
             $(b,name) or $(b,name:key=v,key2=v2) (e.g. \
             $(b,echo:budget=0.05), $(b,dp-bptt:slots=8)). $(b,list) \
             prints every registered planner with its knobs. Defaults to \
             \\$(b,ECHO_POLICY), else $(b,echo).")
  in
  let budget =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ]
          ~doc:
            "Overhead/memory budget passed to any planner that declares a \
             $(b,budget) knob the --policy spec left unbound (legacy \
             shorthand for $(b,--policy echo:budget=...)).")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run the default policy comparison set.") in
  let breakdown = Arg.(value & flag & info [ "breakdown" ] ~doc:"Print the per-category breakdown.") in
  let profile = Arg.(value & flag & info [ "profile" ] ~doc:"Print an nvprof-style simulated kernel profile.") in
  let optimize = Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the fold+CSE pipeline before the pass.") in
  let dot_file = Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"Write the rewritten graph as Graphviz.") in
  let trace_file = Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Write a Chrome trace of the simulated timeline.") in
  let save_file = Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Serialize the rewritten training graph to a file.") in
  let load_file = Arg.(value & opt (some string) None & info [ "load" ] ~doc:"Load a serialized training graph instead of building one.") in
  let device = Arg.(value & opt string "titan-xp" & info [ "device" ] ~doc:"titan-xp or v100.") in
  let domains =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "domains" ]
          ~doc:
            "Kernel-runtime domain count (1 = sequential). Defaults to \
             \\$(b,ECHO_DOMAINS), else the machine's recommended count.")
  in
  let compile =
    Arg.(
      value & flag
      & info [ "compile" ]
          ~doc:"Also lower through plan+compile to the slot executor and \
                print the per-stage summary.")
  in
  let train_steps =
    Arg.(
      value & opt (some int) None
      & info [ "train" ]
          ~doc:
            "Train for $(docv) steps on a synthetic corpus through the \
             fault-tolerant loop (LM-family models only)." ~docv:"STEPS")
  in
  let vocab =
    Arg.(
      value & opt (some int) None
      & info [ "vocab" ]
          ~doc:
            "Vocabulary size for --train (small vocabularies shrink the \
             softmax buffers the recomputation ladder cannot help with).")
  in
  let budget_bytes =
    Arg.(
      value & opt (some int) None
      & info [ "budget-bytes" ]
          ~doc:
            "Hard arena ceiling for --train; a violation re-plans through \
             the recomputation escalation ladder.")
  in
  let faults =
    Arg.(
      value & opt (some string) None
      & info [ "faults" ]
          ~doc:
            "Fault-injection plan for --train, e.g. \
             'oom@3=1048576;transient@5;nan@7' (defaults to \
             \\$(b,ECHO_FAULTS)).")
  in
  let checkpoint_path =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~doc:"Checkpoint file for --train.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 10
      & info [ "checkpoint-every" ]
          ~doc:"Write the checkpoint every $(docv) steps (with --checkpoint)."
          ~docv:"N")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume --train from --checkpoint if it exists; the resumed run \
             reproduces the uninterrupted one exactly.")
  in
  let no_fuse =
    Arg.(
      value & flag
      & info [ "no-fuse" ]
          ~doc:
            "Disable the elementwise fusion codegen stage (for --compile and \
             --train). Results are bit-identical either way; only \
             instruction count, arena size and speed change.")
  in
  let tune_exec =
    Arg.(
      value & flag
      & info [ "tune-exec" ]
          ~doc:
            "With --train: pick the (policy, fuse, domains) combination \
             jointly — walk the recomputation escalation ladder and price \
             every execution-knob combination that fits --budget-bytes with \
             the host cost model, then train with the predicted-fastest \
             one. Overrides --no-fuse and -j.")
  in
  let dump_fusion =
    Arg.(
      value & flag
      & info [ "dump-fusion" ]
          ~doc:
            "Print the fusion groups of the rewritten graph: members, \
             external inputs, and the interior buffers fusion elides.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the Echo-verify static checkers over every compiled \
             artifact (schedule, recomputation clones, fusion plan, the \
             slab offsets the executor runs and the planner's static \
             offset plan) and print the collected diagnostics.")
  in
  let lint_strict =
    Arg.(
      value & flag
      & info [ "lint-strict" ]
          ~doc:"Like --lint, but exit nonzero when any error-severity \
                finding is reported.")
  in
  let corrupt =
    Arg.(
      value & opt (some string) None
      & info [ "corrupt" ]
          ~doc:
            "With --lint: seed one deliberate corruption before checking — \
             one of schedule, slot-overlap, slot-escape, alias, \
             inplace-donor, clone-seed, clone-hint, fusion-region, \
             partition-overlap, partition-gap, lifetime, alias-offsets, \
             fused-interior. The matching checker must fire; with \
             --lint-strict the exit status proves it."
          ~docv:"KIND")
  in
  let sanitize =
    Arg.(
      value & opt (some string) None
      & info [ "sanitize" ]
          ~doc:
            "Shadow-memory sanitizer mode for every compiled executor: \
             $(b,off), $(b,on) (tag each slab cell with its writer and \
             generation; flag uninitialized, stale and plan-expired reads \
             and out-of-partition writes), or $(b,full) (additionally \
             bit-compare every slab cell outside the destination around \
             each instruction — \
             slowest, catches writes the tags cannot see). Training is \
             bit-identical under every mode. A bad value is rejected up \
             front naming the flag. Defaults to \\$(b,ECHO_SANITIZE)."
          ~docv:"MODE")
  in
  let campaign =
    Arg.(
      value & opt (some string) None
      & info [ "campaign" ]
          ~doc:
            "Run a fault-injection campaign and print the per-(model x \
             planner) resilience report: $(b,mini) (one model, three \
             planners — the runtest configuration), $(b,full) (the whole \
             LM zoo x four planners, 320 configurations), optionally \
             with knobs, e.g. $(b,full:steps=6,seed=1,out=campaign.txt). \
             The sweep schedules across the -j pool; the report is \
             byte-identical at every domain count."
          ~docv:"SPEC")
  in
  let corpus_file =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ]
          ~doc:
            "With --train: read the token stream from a PTB-style text file \
             (one sentence per line, blank-separated words, <eos> appended \
             per line) instead of generating a synthetic corpus. The file \
             fixes the vocabulary."
          ~docv:"FILE")
  in
  Term.(
    const run $ model $ batch $ seq_len $ hidden $ layers $ policy $ budget
    $ all $ breakdown $ profile $ optimize $ dot_file $ trace_file
    $ save_file $ load_file $ device $ domains $ compile $ train_steps
    $ vocab $ budget_bytes $ faults $ checkpoint_path $ checkpoint_every
    $ resume $ no_fuse $ tune_exec $ dump_fusion $ lint $ lint_strict
    $ corrupt $ campaign $ corpus_file $ sanitize)

(* echoc serve: the multi-tenant compile-and-train job server. Flag values
   are validated strictly up front — like the ECHO_DOMAINS parser, a bad
   value is a loud error naming the flag and the value, never a silent
   fallback. *)
let serve_die fmt = die_as "echoc serve" fmt

let parse_positive ~flag value =
  match int_of_string_opt value with
  | Some n when n > 0 -> n
  | _ -> serve_die "invalid value %S for %s (want a positive integer)" value flag

let parse_socket value =
  if value = "" then serve_die "invalid value \"\" for --socket (want a path)";
  let dir = Filename.dirname value in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    serve_die
      "invalid value %S for --socket (parent directory %S does not exist)"
      value dir;
  if Sys.file_exists value && Sys.is_directory value then
    serve_die "invalid value %S for --socket (it is a directory)" value;
  value

(* "name=MiB,name=MiB": every entry must parse, names must be non-empty and
   unique, budgets positive — one bad entry rejects the whole flag. *)
let parse_tenants value =
  let entries =
    List.map
      (fun entry ->
        match String.index_opt entry '=' with
        | Some i when i > 0 && i < String.length entry - 1 ->
          let name = String.sub entry 0 i in
          let mib = String.sub entry (i + 1) (String.length entry - i - 1) in
          (match int_of_string_opt mib with
          | Some n when n > 0 -> (name, n * 1024 * 1024)
          | _ ->
            serve_die
              "invalid value %S for --tenants: entry %S has a bad budget %S \
               (want a positive MiB count)"
              value entry mib)
        | _ ->
          serve_die
            "invalid value %S for --tenants: entry %S is not NAME=MIB" value
            entry)
      (String.split_on_char ',' value)
  in
  List.iteri
    (fun i (name, _) ->
      if List.mem_assoc name (List.filteri (fun j _ -> j < i) entries) then
        serve_die "invalid value %S for --tenants: duplicate tenant %S" value
          name)
    entries;
  entries

let serve_run socket cache_mib tenants_spec max_batch domains =
  let socket = parse_socket socket in
  let cache_bytes =
    Option.map
      (fun v -> parse_positive ~flag:"--cache-mib" v * 1024 * 1024)
      cache_mib
  in
  let tenants = Option.map parse_tenants tenants_spec in
  let max_batch = parse_positive ~flag:"--max-batch" max_batch in
  (* A malformed ECHO_DOMAINS, ECHO_FUSION or ECHO_SANITIZE fails here,
     once, by name: the engine resolves them at creation, so no request
     reads them. *)
  let runtime, engine =
    try
      let runtime =
        match domains with
        | Some d -> Echo_tensor.Parallel.set_default_domains d
        | None -> Echo_tensor.Parallel.default ()
      in
      ( runtime,
        Echo_serve.Engine.create ?cache_bytes ?tenants ~max_batch ~runtime () )
    with Invalid_argument msg -> die "%s" msg
  in
  Format.printf "echoc serve: listening on %s (%d domain(s), cache %s, %s)@."
    socket
    (Echo_tensor.Parallel.domains runtime)
    (match cache_bytes with
    | Some b -> Printf.sprintf "%d MiB" (b / 1024 / 1024)
    | None -> "unbounded")
    (match tenants with
    | Some ts ->
      Printf.sprintf "tenants %s"
        (String.concat ","
           (List.map (fun (n, b) -> Printf.sprintf "%s=%dMiB" n (b / 1024 / 1024)) ts))
    | None -> "no tenants");
  Echo_serve.Server.serve ~socket engine;
  Format.printf "echoc serve: shut down@."

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~doc:"Unix socket path to listen on." ~docv:"PATH")
  in
  let cache_mib =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-mib" ]
          ~doc:
            "Byte cap on the content-addressed plan cache, in MiB; past \
             it the compiled artifact with the fewest uses times rebuild \
             cost (graph nodes) per byte is evicted (default unbounded)."
          ~docv:"MIB")
  in
  let tenants =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenants" ]
          ~doc:
            "Per-tenant device-memory budgets, NAME=MIB[,NAME=MIB...]. A \
             request carrying tenant=NAME compiles under that budget and is \
             rejected loudly past it; unknown tenants are errors."
          ~docv:"SPEC")
  in
  let max_batch =
    Arg.(
      value & opt string "8"
      & info [ "max-batch" ]
          ~doc:"Largest stacked same-shape eval batch." ~docv:"N")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "domains" ]
          ~doc:
            "Kernel-runtime domain count (1 = sequential). Defaults to \
             \\$(b,ECHO_DOMAINS), else the machine's recommended count.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve compile/train/eval requests over a Unix socket, sharing one \
          content-addressed plan cache and batching same-shape eval \
          requests.")
    Term.(const serve_run $ socket $ cache_mib $ tenants $ max_batch $ domains)

let cmd =
  Cmd.group ~default:main_term
    (Cmd.info "echoc" ~doc:"Echo compiler pass driver")
    [ serve_cmd ]

let () = exit (Cmd.eval cmd)
