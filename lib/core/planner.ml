open Echo_ir
open Echo_gpusim
open Echo_exec

type knob = { key : string; doc : string; default : float }
type knobs = (string * float) list
type outcome = {
  selection : Select.selection;
  share : bool;
  rewritten : (Graph.t * Memplan.report) option;
}

type t = {
  name : string;
  description : string;
  knob_spec : knob list;
  claim_tolerance : float;
  label : knobs -> string;
  plan :
    knobs:knobs -> device:Device.t -> baseline:Memplan.report -> Graph.t -> outcome;
  offsets : (knobs:knobs -> Graph.t -> Assign.t) option;
}

type instance = { planner : t; knobs : knobs }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registration_order : string list ref = ref []

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg (Printf.sprintf "Planner.register: duplicate name %S" p.name);
  Hashtbl.replace registry p.name p;
  registration_order := p.name :: !registration_order

let all () = List.rev_map (Hashtbl.find registry) !registration_order
let find name = Hashtbl.find_opt registry name

(* Names the pre-registry [echoc] accepted. *)
let aliases = [ ("mirror-all", "mirror-all-cheap"); ("checkpoint", "checkpoint-sqrt") ]

let resolve_name name =
  match List.assoc_opt name aliases with Some n -> n | None -> name

let declares p key = List.exists (fun k -> k.key = key) p.knob_spec

let spec_default p key =
  match List.find_opt (fun k -> k.key = key) p.knob_spec with
  | Some k -> k.default
  | None ->
    invalid_arg
      (Printf.sprintf "planner %S declares no knob %S (has: %s)" p.name key
         (String.concat ", " (List.map (fun k -> k.key) p.knob_spec)))

let check_knobs p knobs =
  List.iter (fun (key, _) -> ignore (spec_default p key)) knobs

let instantiate ?(knobs = []) name =
  match find (resolve_name name) with
  | None -> invalid_arg (Printf.sprintf "Planner.instantiate: unknown planner %S" name)
  | Some p ->
    check_knobs p knobs;
    { planner = p; knobs }

let label i = i.planner.label i.knobs

let knob_value i key =
  match List.assoc_opt key i.knobs with
  | Some v -> v
  | None -> spec_default i.planner key

let knob_is_set i key = List.mem_assoc key i.knobs

let with_knob i key v =
  ignore (spec_default i.planner key);
  { i with knobs = (key, v) :: List.remove_assoc key i.knobs }

let plan i ~device ~baseline graph =
  i.planner.plan ~knobs:i.knobs ~device ~baseline graph

let assigner i graph =
  match i.planner.offsets with
  | None -> Assign.of_plan graph (Memplan.plan graph)
  | Some f -> f ~knobs:i.knobs graph

let parse spec =
  let name, args =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
  in
  let name = resolve_name (String.trim name) in
  match find name with
  | None ->
    Error
      (Printf.sprintf "unknown planner %S (use `--policy list` to see them)"
         name)
  | Some p ->
    let parse_kv acc kv =
      match acc with
      | Error _ -> acc
      | Ok knobs -> begin
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "malformed knob %S (expected key=value)" kv)
        | Some i ->
          let key = String.trim (String.sub kv 0 i) in
          let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
          if not (declares p key) then
            Error
              (Printf.sprintf "planner %S has no knob %S (has: %s)" p.name key
                 (String.concat ", " (List.map (fun k -> k.key) p.knob_spec)))
          else begin
            match float_of_string_opt v with
            | Some f -> Ok ((key, f) :: knobs)
            | None -> Error (Printf.sprintf "knob %s: %S is not a number" key v)
          end
      end
    in
    let parts =
      List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' args)
    in
    Result.map
      (fun knobs -> { planner = p; knobs = List.rev knobs })
      (List.fold_left parse_kv (Ok []) parts)

let pp_list fmt () =
  Format.fprintf fmt "@[<v>registered planners:@,";
  List.iter
    (fun p ->
      Format.fprintf fmt "  %-17s %s@," p.name p.description;
      List.iter
        (fun k ->
          Format.fprintf fmt "  %17s   %s=%g  %s@," "" k.key k.default k.doc)
        p.knob_spec)
    (all ());
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Builtin planners                                                    *)

(* An outcome the pass still has to rewrite and measure itself. *)
let unchanged ?(share = true) selection = { selection; share; rewritten = None }

let value spec knobs key =
  match List.assoc_opt key knobs with
  | Some v -> v
  | None -> (List.find (fun k -> k.key = key) spec).default

let knobless name description ?(claim_tolerance = 0.5) ?offsets plan_fn =
  {
    name;
    description;
    knob_spec = [];
    claim_tolerance;
    label = (fun _ -> name);
    plan = plan_fn;
    offsets;
  }

(* Echo measures its own plans with the memory planner: the pass tries a
   descending ladder of overhead budgets and ships the plan with the lowest
   measured peak (recomputation clones that outlive the peak can cost more
   memory than the stash they free — a failure mode the selection
   estimators cannot see, but the planner can). Falls back to a no-op when
   nothing beats the baseline. The baseline's plan is the caller's; each
   non-empty rung selection is mirrored and planned once, and only the
   best rung's graph and plan stay alive, handed back so [Pass] need not
   rebuild them. *)
let echo_ladder ~cheap_only ~device ~baseline graph budget =
  let budgets = [ budget; budget /. 2.0; budget /. 4.0; budget /. 8.0 ] in
  let best = ref (unchanged Select.empty) in
  let best_peak = ref baseline.Memplan.live_peak_bytes in
  List.iter
    (fun b ->
      if b >= 0.002 then begin
        let selection = Select.echo ~cheap_only device graph ~overhead_budget:b in
        let ids = selection.Select.mirror_ids in
        (* An empty selection measures the baseline: it cannot win. *)
        if not (Ids.Set.is_empty ids) then begin
          let graph' = Rewrite.mirror ~share:true graph ~mirror_ids:ids in
          let mem = Memplan.plan graph' in
          if mem.Memplan.live_peak_bytes < !best_peak then begin
            best_peak := mem.Memplan.live_peak_bytes;
            best := { selection; share = true; rewritten = Some (graph', mem) }
          end
        end
      end)
    budgets;
  !best

let budget_knob =
  {
    key = "budget";
    doc = "recomputation-time budget, as a fraction of the iteration time";
    default = 0.10;
  }

let echo_family name description ~claim_tolerance plan_fn =
  {
    name;
    description;
    knob_spec = [ budget_knob ];
    claim_tolerance;
    label =
      (fun knobs ->
        Printf.sprintf "%s(%.0f%%)" name
          (100.0 *. value [ budget_knob ] knobs "budget"));
    plan = plan_fn;
    offsets = None;
  }

(* ------------------------------------------------------------------ *)
(* dp-bptt: Gruslys et al.-style segment checkpointing by dynamic
   programming over the stash bytes of the forward schedule.

   For a segment count [k], the optimal (bottleneck-minimal) partition of
   the forward schedule into k contiguous segments is found by binary
   search on the per-segment stash limit with a greedy feasibility scan —
   exact for this min-max partition problem, and the one-level collapse of
   Gruslys' multi-level DP (shared recomputation clones mean every node is
   recomputed at most once here, so deeper recursion buys nothing). Segment
   interiors are recomputed during backward; the inter-segment frontier
   stays stashed. With [budget-mib] set, the planner sweeps k and keeps the
   cheapest partition (largest k) whose frontier + largest-segment bytes
   fit the budget — the "DP over memory budget" entry point. *)

let dp_bptt_spec =
  [
    {
      key = "slots";
      doc = "checkpoint segment count (0 = auto: ceil sqrt of stashed maps)";
      default = 0.0;
    };
    {
      key = "budget-mib";
      doc =
        "stash budget in MiB: pick the cheapest segmentation whose \
         frontier+segment estimate fits (0 = off, use `slots`)";
      default = 0.0;
    };
  ]

let dp_bptt_plan ~knobs ~device ~baseline:_ graph =
  let stash = Stash.analyse graph in
  let fwd = Array.of_list (Graph.forward_nodes graph) in
  let n = Array.length fwd in
  if n = 0 then unchanged Select.empty
  else begin
    let stashed_size node =
      if Stash.is_stashed stash (Node.id node) then Node.size_bytes node else 0
    in
    let w0 = Array.map stashed_size fwd in
    let total0 = Array.fold_left ( + ) 0 w0 in
    let stashed_count =
      Array.fold_left (fun a wi -> if wi > 0 then a + 1 else a) 0 w0
    in
    (* Nothing stashed: balance segment node counts instead so the planner
       still degrades to plain segment recomputation. *)
    let w = if total0 = 0 then Array.make n 1 else w0 in
    let total = Array.fold_left ( + ) 0 w in
    let maxw = Array.fold_left max 1 w in
    let segments_needed limit =
      let segs = ref 1 and cur = ref 0 in
      Array.iter
        (fun wi ->
          if !cur + wi > limit && !cur > 0 then begin
            incr segs;
            cur := wi
          end
          else cur := !cur + wi)
        w;
      !segs
    in
    let min_limit k =
      let lo = ref maxw and hi = ref total in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if segments_needed mid <= k then hi := mid else lo := mid + 1
      done;
      !lo
    in
    (* Partition under the limit; mirror recomputable segment interiors. *)
    let evaluate k =
      let limit = min_limit (max 1 k) in
      let seg_of = Hashtbl.create 1024 in
      let seg = ref 0 and cur = ref 0 in
      Array.iteri
        (fun i node ->
          let wi = w.(i) in
          if !cur + wi > limit && !cur > 0 then begin
            incr seg;
            cur := 0
          end;
          cur := !cur + wi;
          Hashtbl.replace seg_of (Node.id node) !seg)
        fwd;
      let crosses_segment node =
        let s = Hashtbl.find seg_of (Node.id node) in
        List.exists
          (fun c ->
            Node.region c = Node.Forward
            && Hashtbl.mem seg_of (Node.id c)
            && Hashtbl.find seg_of (Node.id c) > s)
          (Graph.consumers graph (Node.id node))
      in
      let mirrored =
        List.filter
          (fun node ->
            Op.is_recomputable (Node.op node)
            && (not (Graph.is_output graph (Node.id node)))
            && not (crosses_segment node))
          (Array.to_list fwd)
      in
      let claimed =
        List.fold_left (fun acc node -> acc + stashed_size node) 0 mirrored
      in
      (limit, mirrored, claimed)
    in
    let auto_k =
      let base = if stashed_count > 0 then stashed_count else n in
      max 1 (int_of_float (ceil (sqrt (float_of_int base))))
    in
    let budget_mib = value dp_bptt_spec knobs "budget-mib" in
    let k =
      if budget_mib > 0.0 then begin
        let budget_bytes =
          int_of_float (budget_mib *. 1024.0 *. 1024.0)
        in
        (* More segments keep a bigger frontier but recompute less: take the
           largest k whose estimated stash peak fits, k=1 (maximal saving)
           when none does. *)
        let candidates =
          List.sort_uniq compare
            (List.filter
               (fun k -> k >= 1 && k <= max 1 stashed_count)
               [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64; auto_k ])
        in
        let fits k =
          let limit, _, claimed = evaluate k in
          total0 - claimed + limit <= budget_bytes
        in
        List.fold_left (fun best k -> if fits k then k else best) 1 candidates
      end
      else begin
        let slots = int_of_float (value dp_bptt_spec knobs "slots") in
        if slots > 0 then slots else auto_k
      end
    in
    let _, mirrored, claimed = evaluate k in
    unchanged (Select.selection_of device mirrored ~claimed_saving:claimed)
  end

(* ------------------------------------------------------------------ *)
(* Registrations. These run at module initialisation: every consumer of
   the registry links against this module, so the builtins are always
   present before any lookup. *)

let () =
  register
    (knobless "stash-all" "keep every feature map (the framework baseline)"
       ~claim_tolerance:0.01 (fun ~knobs:_ ~device:_ ~baseline:_ _graph ->
         unchanged Select.empty));
  register
    (knobless "mirror-all-cheap"
       "legacy heuristic: mirror every cheap stashed map, no cost-benefit"
       ~claim_tolerance:2.0 (fun ~knobs:_ ~device:_ ~baseline:_ graph ->
         unchanged (Select.mirror_all_cheap graph)));
  register
    (knobless "checkpoint-sqrt"
       "Chen et al. sqrt(n) segment checkpointing of the forward schedule"
       ~claim_tolerance:1.0 (fun ~knobs:_ ~device ~baseline:_ graph ->
         unchanged (Select.checkpoint_sqrt device graph)));
  register
    {
      name = "dp-bptt";
      description =
        "Gruslys-style DP: bottleneck-optimal byte-balanced segments, \
         optionally fit to a memory budget";
      knob_spec = dp_bptt_spec;
      claim_tolerance = 1.0;
      label = (fun _ -> "dp-bptt");
      plan = dp_bptt_plan;
      offsets = None;
    };
  register
    (echo_family "echo"
       "the paper's cost-benefit selection under a measured-peak ladder"
       ~claim_tolerance:0.6
       (fun ~knobs ~device ~baseline graph ->
         echo_ladder ~cheap_only:false ~device ~baseline graph
           (value [ budget_knob ] knobs "budget")));
  register
    (echo_family "echo-cheap"
       "Echo restricted to cheap (elementwise) recomputation chains"
       ~claim_tolerance:0.6
       (fun ~knobs ~device ~baseline graph ->
         echo_ladder ~cheap_only:true ~device ~baseline graph
           (value [ budget_knob ] knobs "budget")));
  register
    (echo_family "echo-noshare"
       "ablation: recomputation clones are not shared among consumers"
       ~claim_tolerance:0.6
       (fun ~knobs ~device ~baseline:_ graph ->
         let budget = value [ budget_knob ] knobs "budget" in
         unchanged ~share:false
           (Select.echo device graph ~overhead_budget:budget)));
  register
    (echo_family "echo-notrans"
       "ablation: naive estimator, no transitive-stashing accounting"
       ~claim_tolerance:2.0
       (fun ~knobs ~device ~baseline:_ graph ->
         let budget = value [ budget_knob ] knobs "budget" in
         unchanged
           (Select.echo ~transitive:false device graph ~overhead_budget:budget)));
  register
    (knobless "recompute-all"
       "recompute every recomputable map: stash lower bound, time upper bound"
       ~claim_tolerance:1.0 (fun ~knobs:_ ~device ~baseline:_ graph ->
         unchanged (Select.recompute_all device graph)));
  let olla_spec =
    [
      {
        key = "iters";
        doc = "annealing steps per restart (auto-scaled down on big graphs)";
        default = float_of_int Arena_solver.default.Arena_solver.iters;
      };
      {
        key = "restarts";
        doc = "independent annealing restarts";
        default = float_of_int Arena_solver.default.Arena_solver.restarts;
      };
      {
        key = "seed";
        doc = "RNG seed: same seed, same plan";
        default = float_of_int Arena_solver.default.Arena_solver.seed;
      };
    ]
  in
  register
    {
      name = "olla-arena";
      description =
        "stash-all semantics + OLLA-style annealed lifetime/offset solver \
         for the static arena";
      knob_spec = olla_spec;
      claim_tolerance = 0.01;
      label = (fun _ -> "olla-arena");
      plan =
        (fun ~knobs:_ ~device:_ ~baseline:_ _graph -> unchanged Select.empty);
      offsets =
        Some
          (fun ~knobs graph ->
            let config =
              {
                Arena_solver.iters = int_of_float (value olla_spec knobs "iters");
                restarts = int_of_float (value olla_spec knobs "restarts");
                seed = int_of_float (value olla_spec knobs "seed");
              }
            in
            Arena_solver.solve ~config graph);
    }
