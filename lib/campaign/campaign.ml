open Echo_tensor
open Echo_ir
open Echo_models
module Fault = Echo_runtime.Fault
module Event = Echo_runtime.Event
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Planner = Echo_core.Planner
module Pass = Echo_core.Pass
module Mutate = Echo_analysis.Mutate
module Verify = Echo_analysis.Verify
module Sanitize = Echo_analysis.Sanitize
module Race = Echo_analysis.Race
module Pipeline = Echo_compiler.Pipeline
module Corpus = Echo_workloads.Corpus

let device = Echo_gpusim.Device.titan_xp

type outcome = Masked | Detected_recovered | Silent_data_corruption | Crash

let outcome_to_string = function
  | Masked -> "masked"
  | Detected_recovered -> "detected"
  | Silent_data_corruption -> "sdc"
  | Crash -> "crash"

type plan_mutation = Reseed_clone | Bad_clone_hint

type fault =
  | Runtime_fault of Fault.spec
  | Plan_fault of plan_mutation

let fault_to_string = function
  | Runtime_fault { Fault.step; kind } -> Fault.kind_to_string step kind
  | Plan_fault Reseed_clone -> "plan:clone-seed"
  | Plan_fault Bad_clone_hint -> "plan:clone-hint"

type config = { model : string; planner : string; fuse : bool; fault : fault }

type result = {
  config : config;
  outcome : outcome;
  verify_caught : bool option;
  race_caught : bool option;
}

type cell = {
  cell_model : string;
  cell_planner : string;
  masked : int;
  detected : int;
  sdc : int;
  crash : int;
  verify_caught : int;
  verify_total : int;
  race_caught : int;
  race_total : int;
}

type spec = { preset : string; steps : int; seed : int; out : string option }
type report = { spec : spec; results : result list; cells : cell list }

(* {1 Sweep space} *)

let zoo =
  [
    ("lstm-lm", Recurrent.Lstm);
    ("gru-lm", Recurrent.Gru);
    ("rnn-lm", Recurrent.Vanilla);
    ("peephole-lm", Recurrent.Peephole);
  ]

let models_of_preset = function
  | "mini" -> [ "lstm-lm" ]
  | _ -> List.map fst zoo

let planners_of_preset = function
  | "mini" -> [ "stash-all"; "checkpoint-sqrt"; "echo" ]
  | _ -> [ "stash-all"; "checkpoint-sqrt"; "dp-bptt"; "echo" ]

(* {1 Spec parsing} *)

let default_spec preset =
  match preset with
  | "mini" | "full" -> { preset; steps = 6; seed = 0; out = None }
  | p -> invalid_arg (Printf.sprintf "Campaign.default_spec: unknown preset %S" p)

let parse_spec text =
  let text = String.trim text in
  let name, args =
    match String.index_opt text ':' with
    | None -> (text, "")
    | Some i ->
      ( String.sub text 0 i,
        String.sub text (i + 1) (String.length text - i - 1) )
  in
  match name with
  | "mini" | "full" ->
    let base = default_spec name in
    let step kv acc =
      match acc with
      | Error _ as e -> e
      | Ok spec -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "campaign spec: %S is not key=value" kv)
        | Some eq ->
          let key = String.trim (String.sub kv 0 eq) in
          let v = String.trim (String.sub kv (eq + 1) (String.length kv - eq - 1)) in
          let int_v () =
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok n
            | _ -> Error (Printf.sprintf "campaign spec: %s=%S is not a non-negative integer" key v)
          in
          (match key with
          | "steps" -> (
            match int_v () with
            | Ok n when n > 0 -> Ok { spec with steps = n }
            | Ok _ -> Error "campaign spec: steps must be positive"
            | Error _ as e -> e)
          | "seed" -> Result.map (fun n -> { spec with seed = n }) (int_v ())
          | "out" -> Ok { spec with out = Some v }
          | _ -> Error (Printf.sprintf "campaign spec: unknown key %S (steps, seed, out)" key)))
    in
    List.fold_left
      (fun acc kv -> step kv acc)
      (Ok base)
      (List.filter
         (fun s -> String.trim s <> "")
         (String.split_on_char ',' args))
  | other ->
    Error
      (Printf.sprintf
         "campaign spec %S: unknown preset %S (mini or full, optionally \
          :steps=N,seed=N,out=PATH)"
         text other)

(* {1 One training run}

   Everything a run touches — model, corpus, graph, executor — is built
   fresh inside the call and seeded only by (spec, config), so runs are
   independent of scheduling order and safe to execute concurrently from
   pool domains. The inner kernel runtime is always sequential: the
   parallelism budget belongs to the orchestrator, and [parallel_for] must
   not nest. *)

let build_lm ~seed model =
  let cell =
    match List.assoc_opt model zoo with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Campaign: unknown model %S" model)
  in
  Language_model.build
    {
      Language_model.vocab = 60;
      embed = 12;
      hidden = 12;
      layers = 2;
      seq_len = 6;
      batch = 3;
      dropout = 0.2;
      cell;
      seed = 42 + seed;
    }

(* Batches plus the flattened parameter index of one embedding scalar the
   corpus never reads (a "dead memory" injection target: flipping it must
   be masked). The token stream is deterministic, so which rows are dead is
   a pure function of (seed, steps). *)
let data_for lm ~steps ~seed =
  let cfg = lm.Language_model.cfg in
  let corpus =
    Corpus.generate ~seed:(5 + seed) ~vocab:cfg.Language_model.vocab
      ~length:
        (((steps + 2) * cfg.Language_model.batch * cfg.Language_model.seq_len)
        + 1)
  in
  let pairs =
    Corpus.lm_batches corpus ~batch:cfg.Language_model.batch
      ~seq_len:cfg.Language_model.seq_len ~steps
  in
  let used = Array.make cfg.Language_model.vocab false in
  List.iter
    (fun (tokens, _) ->
      Array.iter
        (fun v -> used.(int_of_float v) <- true)
        (Tensor.to_array tokens))
    pairs;
  let dead_token =
    let rec scan i =
      if i >= Array.length used then None
      else if not used.(i) then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let dead_index =
    Option.bind dead_token (fun tok ->
        (* offset of the embedding table in the flattened parameter vector *)
        let rec locate off = function
          | [] -> None
          | (node, v) :: rest ->
            if Node.name node = "embed" then
              Some (off + (tok * cfg.Language_model.embed)
                    + (cfg.Language_model.embed / 2))
            else locate (off + Tensor.numel v) rest
        in
        locate 0 (Params.bindings lm.Language_model.model.Model.params))
  in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      pairs
  in
  (batches, dead_index)

let act_site_count graph =
  List.length (List.filter Loop.is_act_site (Graph.forward_nodes graph))

let train_once ~spec ~model ~fuse ~planner ~faults ~graph ~lm ?sanitize
    ~on_event () =
  let batches, _ = data_for lm ~steps:spec.steps ~seed:spec.seed in
  Loop.train ~graph
    ~params:(Params.bindings lm.Language_model.model.Model.params)
    ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.5 }))
    ~clip_norm:5.0 ~on_event ~faults ~device ~runtime:Parallel.sequential
    ~fuse ?sanitize ?planner ~batches ()
  |> fun r ->
  ignore model;
  r.Loop.losses

(* {1 Classification} *)

let bits_equal a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.bits_of_float a = Int64.bits_of_float b

let final = function [] -> None | losses -> Some (List.nth losses (List.length losses - 1))

let last_finite losses =
  List.fold_left
    (fun acc l -> if Float.is_finite l then Some l else acc)
    None losses

(* Total and mutually exclusive: exception -> Crash (Verify refusal ->
   Detected_recovered) is decided by the caller; here the run completed.
   Detection fired: converged back within tolerance -> Detected_recovered,
   else the detector did not protect the run -> corruption. Nothing fired:
   bit-identical final loss -> Masked, else silent corruption. *)
let classify ~golden ~events losses =
  let detected = List.exists Event.is_detection events in
  let g_final = final golden in
  if detected then
    match (last_finite losses, g_final) with
    | Some l, Some g when Float.abs (l -. g) <= 0.1 *. Float.max 1.0 (Float.abs g)
      ->
      Detected_recovered
    | _ -> Silent_data_corruption
  else
    match (final losses, g_final) with
    | Some l, Some g
      when List.length losses = List.length golden && bits_equal l g ->
      Masked
    | None, None -> Masked
    | _ -> Silent_data_corruption

(* {1 Golden runs} *)

type golden = {
  g_losses : float list;
  g_sites : int;
  g_dead : int option;
  g_reseed : bool;  (** the rewritten graph offers a clone-reseed site *)
  g_hint : bool;  (** ... a clone-hint site *)
}

let golden_for ~spec ~model ~planner ~fuse =
  let lm = build_lm ~seed:spec.seed model in
  let graph =
    (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph
  in
  let inst = Planner.instantiate planner in
  let rw, _ = Pass.run_instance ~device inst graph in
  let _, dead = data_for lm ~steps:spec.steps ~seed:spec.seed in
  let losses =
    train_once ~spec ~model ~fuse ~planner:(Some inst) ~faults:Fault.none
      ~graph ~lm ~on_event:ignore ()
  in
  {
    g_losses = losses;
    g_sites = act_site_count graph;
    g_dead = dead;
    g_reseed = Mutate.reseed_clone rw <> None;
    g_hint = Mutate.bad_clone_hint rw <> None;
  }

(* {1 Fault menu}

   Ten faults per (model, planner, fusion) cell, spanning the upset
   taxonomy: parameter flips at mantissa/exponent/dead-memory bits,
   activation flips at two sites and magnitudes, an op-level transient, a
   NaN poisoning, and the two plan corruptions (with deterministic
   runtime-fault substitutes on planners whose plans offer no mutation
   site, so every cell sees the same number of configurations). *)
let menu ~spec (g : golden) =
  let site k = k mod max 1 g.g_sites in
  let rt step kind = Runtime_fault { Fault.step; kind } in
  let dead_flip =
    match g.g_dead with
    | Some index -> rt 2 (Fault.Flip_param { index; bit = 52 })
    (* no dead row this seed: schedule the upset past the last executed
       step — an injection outside the run's window, masked by design *)
    | None -> rt spec.steps (Fault.Flip_param { index = 0; bit = 52 })
  in
  [
    rt 2 (Fault.Flip_param { index = 1009 + spec.seed; bit = 1 });
    rt 3 (Fault.Flip_param { index = 2003 + spec.seed; bit = 52 });
    rt 1 (Fault.Flip_param { index = 7; bit = 62 });
    dead_flip;
    rt 2 (Fault.Flip_act { site = site 5; index = 11; bit = 50 });
    rt 1 (Fault.Flip_act { site = site 13; index = 0; bit = 62 });
    rt 2 (Fault.Transient "campaign");
    rt 3 Fault.Nan_poison;
    (if g.g_reseed then Plan_fault Reseed_clone
     else rt 4 (Fault.Flip_act { site = site 3; index = 3; bit = 61 }));
    (if g.g_hint then Plan_fault Bad_clone_hint
     else rt 4 (Fault.Flip_param { index = 123 + spec.seed; bit = 8 }));
  ]

(* {1 Execution} *)

(* The dynamic cross-check: replay a flip fault under the Full-mode
   shadow-memory sanitizer ({!Echo_analysis.Sanitize}) and record whether
   it trips. An activation flip lands in the executor arena mid-run and
   surfaces as a foreign write at the next instruction; a parameter flip
   mutates persistent state outside the arena the sanitizer shadows and is
   (correctly) invisible to it. The probe is a fresh run, independent of
   the classified one, so detection never perturbs the outcome taxonomy;
   it stops at the first step that can observe the flip. *)
let sanitizer_probe ~spec ~c s =
  let probe_spec = { spec with steps = min spec.steps (s.Fault.step + 2) } in
  try
    let lm = build_lm ~seed:spec.seed c.model in
    let graph =
      (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph
    in
    let inst = Planner.instantiate c.planner in
    ignore
      (train_once ~spec:probe_spec ~model:c.model ~fuse:c.fuse
         ~planner:(Some inst) ~faults:(Fault.of_specs [ s ]) ~graph ~lm
         ~sanitize:Sanitize.Full ~on_event:ignore ());
    Some false
  with
  | Sanitize.Sanitize_failed _ -> Some true
  | _ -> None

(* The static cross-check for plan faults: compile the corrupted graph
   off the verify gate and ask {!Pipeline.race_verify} directly. Clone
   corruptions are semantic (wrong seed, wrong hint), not races — the
   column documents that the race layer is orthogonal to them while
   {!Verify.lint} (the verify column) catches them. Under [ECHO_VERIFY=1]
   the compile itself may be refused; the race verdict is then read off
   the refusal report's race-check findings. *)
let race_static ~fuse graph =
  let race_checks =
    [
      "race-partition"; "race-sharing"; "race-alias"; "race-fused";
      "race-liveness"; "race-address";
    ]
  in
  try
    let exe = Pipeline.compile_graph ~runtime:Parallel.sequential ~fuse graph in
    Some (Echo_diag.Report.has_errors (Pipeline.race_verify exe))
  with
  | Verify.Verify_failed report ->
    Some
      (List.exists
         (fun check ->
           List.exists
             (fun d -> d.Echo_diag.severity = Echo_diag.Error)
             (Echo_diag.Report.with_check check report))
         race_checks)
  | _ -> None

let run_config ~spec ~golden c =
  let events = ref [] in
  let on_event e = events := e :: !events in
  let verify_caught = ref None in
  let race_caught = ref None in
  let outcome =
    match
      let lm = build_lm ~seed:spec.seed c.model in
      let graph =
        (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph
      in
      let inst = Planner.instantiate c.planner in
      match c.fault with
      | Runtime_fault s ->
        (match s.Fault.kind with
        | Fault.Flip_param _ | Fault.Flip_act _ ->
          race_caught := sanitizer_probe ~spec ~c s
        | _ -> ());
        train_once ~spec ~model:c.model ~fuse:c.fuse ~planner:(Some inst)
          ~faults:(Fault.of_specs [ s ]) ~graph ~lm ~on_event ()
      | Plan_fault m ->
        let rw, _ = Pass.run_instance ~device inst graph in
        let mutated =
          match
            (match m with
            | Reseed_clone -> Mutate.reseed_clone rw
            | Bad_clone_hint -> Mutate.bad_clone_hint rw)
          with
          | Some g -> g
          | None ->
            failwith "campaign: plan mutation lost its site between phases"
        in
        (* The cross-check column: would the static sanitizer have refused
           this artifact? Checked directly, independent of ECHO_VERIFY. *)
        verify_caught :=
          Some (Echo_diag.Report.has_errors (Verify.lint mutated));
        race_caught := race_static ~fuse:c.fuse mutated;
        train_once ~spec ~model:c.model ~fuse:c.fuse ~planner:None
          ~faults:Fault.none ~graph:mutated ~lm ~on_event ()
    with
    | losses -> classify ~golden:golden.g_losses ~events:!events losses
    | exception Verify.Verify_failed _ ->
      (* ECHO_VERIFY=1 self-certification refused the corrupted compile:
         the fault was detected before a single step ran. *)
      Detected_recovered
    | exception _ -> Crash
  in
  { config = c; outcome; verify_caught = !verify_caught;
    race_caught = !race_caught }

(* Fan [f 0 .. f (n-1)] out across the pool. Each task writes only its own
   result slot, so work stealing cannot perturb the report. The huge work
   hint defeats the small-loop gate: these are whole training runs, not
   kernel rows. *)
let parallel_each pool n f =
  if n > 0 then
    Parallel.parallel_for pool ~work:(1 lsl 30) ~n (fun lo hi ->
        for i = lo to hi - 1 do
          f i
        done)

let run ?pool spec =
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let models = models_of_preset spec.preset in
  let planners = planners_of_preset spec.preset in
  let combos =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun planner ->
            [ (model, planner, false); (model, planner, true) ])
          planners)
      models
  in
  let combos = Array.of_list combos in
  let goldens = Array.make (Array.length combos) None in
  parallel_each pool (Array.length combos) (fun i ->
      let model, planner, fuse = combos.(i) in
      goldens.(i) <-
        Some
          (try Ok (golden_for ~spec ~model ~planner ~fuse)
           with e -> Error (Printexc.to_string e)));
  let golden_of i =
    match goldens.(i) with
    | Some (Ok g) -> g
    | Some (Error msg) ->
      let model, planner, fuse = combos.(i) in
      failwith
        (Printf.sprintf "campaign golden run %s/%s/%s failed: %s" model
           planner
           (if fuse then "fused" else "unfused")
           msg)
    | None -> assert false
  in
  let configs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (model, planner, fuse) ->
              List.map
                (fun fault -> ((model, planner, fuse, fault), i))
                (menu ~spec (golden_of i)))
            (Array.to_list combos)))
  in
  let results = Array.make (Array.length configs) None in
  parallel_each pool (Array.length configs) (fun i ->
      let (model, planner, fuse, fault), gi = configs.(i) in
      results.(i) <-
        Some
          (run_config ~spec ~golden:(golden_of gi)
             { model; planner; fuse; fault }));
  let results =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  in
  let cells =
    List.concat_map
      (fun model ->
        List.map
          (fun planner ->
            List.fold_left
              (fun cell r ->
                if r.config.model <> model || r.config.planner <> planner then
                  cell
                else
                  let cell =
                    match r.outcome with
                    | Masked -> { cell with masked = cell.masked + 1 }
                    | Detected_recovered ->
                      { cell with detected = cell.detected + 1 }
                    | Silent_data_corruption -> { cell with sdc = cell.sdc + 1 }
                    | Crash -> { cell with crash = cell.crash + 1 }
                  in
                  let cell =
                    match r.verify_caught with
                    | None -> (
                      match r.config.fault with
                      | Plan_fault _ ->
                        (* the compile was refused before the direct lint
                           ran: ECHO_VERIFY counts as a static catch *)
                        {
                          cell with
                          verify_total = cell.verify_total + 1;
                          verify_caught =
                            (cell.verify_caught
                            + if r.outcome = Detected_recovered then 1 else 0);
                        }
                      | Runtime_fault _ -> cell)
                    | Some caught ->
                      {
                        cell with
                        verify_total = cell.verify_total + 1;
                        verify_caught =
                          (cell.verify_caught + if caught then 1 else 0);
                      }
                  in
                  match r.race_caught with
                  | None -> cell
                  | Some caught ->
                    {
                      cell with
                      race_total = cell.race_total + 1;
                      race_caught =
                        (cell.race_caught + if caught then 1 else 0);
                    })
              {
                cell_model = model;
                cell_planner = planner;
                masked = 0;
                detected = 0;
                sdc = 0;
                crash = 0;
                verify_caught = 0;
                verify_total = 0;
                race_caught = 0;
                race_total = 0;
              }
              results)
          planners)
      models
  in
  { spec; results; cells }

(* {1 Rendering} *)

let summary r =
  let b = Buffer.create 2048 in
  let models = models_of_preset r.spec.preset in
  let planners = planners_of_preset r.spec.preset in
  Printf.bprintf b
    "campaign %s: %d configurations, %d model(s) x %d planner(s), \
     fused+unfused, steps=%d, seed=%d\n"
    r.spec.preset
    (List.length r.results)
    (List.length models) (List.length planners) r.spec.steps r.spec.seed;
  Printf.bprintf b "%-14s %-16s %7s %9s %5s %6s %8s %8s\n" "model" "planner"
    "masked" "detected" "sdc" "crash" "verify" "race";
  List.iter
    (fun c ->
      Printf.bprintf b "%-14s %-16s %7d %9d %5d %6d %8s %8s\n" c.cell_model
        c.cell_planner c.masked c.detected c.sdc c.crash
        (if c.verify_total = 0 then "-"
         else Printf.sprintf "%d/%d" c.verify_caught c.verify_total)
        (if c.race_total = 0 then "-"
         else Printf.sprintf "%d/%d" c.race_caught c.race_total))
    r.cells;
  let tm, td, ts, tc, vc, vt, rc, rt =
    List.fold_left
      (fun (m, d, s, c, vc, vt, rc, rt) cell ->
        ( m + cell.masked,
          d + cell.detected,
          s + cell.sdc,
          c + cell.crash,
          vc + cell.verify_caught,
          vt + cell.verify_total,
          rc + cell.race_caught,
          rt + cell.race_total ))
      (0, 0, 0, 0, 0, 0, 0, 0) r.cells
  in
  Printf.bprintf b "%-14s %-16s %7d %9d %5d %6d %8s %8s\n" "total" "" tm td ts
    tc
    (if vt = 0 then "-" else Printf.sprintf "%d/%d" vc vt)
    (if rt = 0 then "-" else Printf.sprintf "%d/%d" rc rt);
  Printf.bprintf b
    "echo-verify flagged %d of %d plan-corrupting faults statically\n" vc vt;
  Printf.bprintf b
    "race/sanitizer cross-check flagged %d of %d memory-upsetting faults\n" rc
    rt;
  Buffer.contents b

let detail_lines r =
  List.map
    (fun res ->
      Printf.sprintf "%s/%s/%s %s -> %s%s" res.config.model res.config.planner
        (if res.config.fuse then "fused" else "unfused")
        (fault_to_string res.config.fault)
        (outcome_to_string res.outcome)
        (match res.verify_caught with
        | None -> ""
        | Some true -> " [verify:caught]"
        | Some false -> " [verify:missed]")
        ^
        match res.race_caught with
        | None -> ""
        | Some true -> " [race:caught]"
        | Some false -> " [race:missed]")
    r.results

let json_fields r =
  let cell_fields c =
    let key k = Printf.sprintf "%s/%s/%s" c.cell_model c.cell_planner k in
    [
      (key "masked", float_of_int c.masked);
      (key "detected", float_of_int c.detected);
      (key "sdc", float_of_int c.sdc);
      (key "crash", float_of_int c.crash);
      (key "verify_caught", float_of_int c.verify_caught);
      (key "verify_total", float_of_int c.verify_total);
      (key "race_caught", float_of_int c.race_caught);
      (key "race_total", float_of_int c.race_total);
    ]
  in
  let tm, td, ts, tc, vc, vt, rc, rt =
    List.fold_left
      (fun (m, d, s, c, vcaught, vtotal, rcaught, rtotal) cell ->
        ( m + cell.masked,
          d + cell.detected,
          s + cell.sdc,
          c + cell.crash,
          vcaught + cell.verify_caught,
          vtotal + cell.verify_total,
          rcaught + cell.race_caught,
          rtotal + cell.race_total ))
      (0, 0, 0, 0, 0, 0, 0, 0) r.cells
  in
  List.concat_map cell_fields r.cells
  @ [
      ("total/configs", float_of_int (List.length r.results));
      ("total/masked", float_of_int tm);
      ("total/detected", float_of_int td);
      ("total/sdc", float_of_int ts);
      ("total/crash", float_of_int tc);
      ("total/verify_caught", float_of_int vc);
      ("total/verify_total", float_of_int vt);
      ("total/race_caught", float_of_int rc);
      ("total/race_total", float_of_int rt);
    ]
