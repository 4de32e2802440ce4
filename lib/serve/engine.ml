open Echo_tensor
open Echo_ir
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Language_model = Echo_models.Language_model
module Recurrent = Echo_models.Recurrent
module Params = Echo_models.Params
module Model = Echo_models.Model
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Corpus = Echo_workloads.Corpus

(* A malformed request. Never escapes [exec_all]: it renders as one
   [err <reason>] response line. *)
exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* Which graph of a spec a cache key names: the training graph of
   [compile], [lint] and [train], or the forward graph of a stacked eval. *)
type graph_kind = Training | Forward

(* What a cached eval executable holds: the canonical spec (batch = k)
   whose parameters were last fed into it, and its token input's slot. The
   executor is held weakly, so the record never keeps an evicted entry
   alive; a record whose executor is gone, or is not the one the cache
   serves now (a recompile after eviction), matches nothing. *)
type fed = {
  executor : Executor.t Weak.t;  (** length 1 *)
  spec : Language_model.config;
  token_slot : int;
}

type t = {
  cache : Plan_cache.t;
  tenants : (string * int) list;  (** name -> budget bytes *)
  max_batch : int;
  runtime : Parallel.t;
  fuse : bool;
  sanitize : Echo_analysis.Sanitize.mode;
      (** [runtime], [fuse] and [sanitize] are resolved from the process
          environment once, at [create]: every request compiles and keys
          under these values and reads no variable itself. *)
  keys : (graph_kind * Language_model.config * int option, string) Hashtbl.t;
      (** Memoised [Pipeline.cache_key] per (graph kind, spec, budget):
          each graph is a pure function of the spec, so once a spec's key
          is known a cache hit answers without rebuilding the model — the
          dominant cost of a warm request. In-process only, so structural
          hashing is fine here (no run-to-run stability requirement,
          unlike {!Echo_ir.Graph.fingerprint}). *)
  fed : (string, fed) Hashtbl.t;  (** by cache key, eval entries only *)
}

let create ?cache_bytes ?(tenants = []) ?(max_batch = 8) ?runtime () =
  if max_batch <= 0 then
    invalid_arg
      (Printf.sprintf "Engine.create: max_batch must be positive, got %d"
         max_batch);
  List.iteri
    (fun i (name, bytes) ->
      if name = "" then invalid_arg "Engine.create: empty tenant name";
      if bytes <= 0 then
        invalid_arg
          (Printf.sprintf
             "Engine.create: tenant %S budget must be positive, got %d" name
             bytes);
      if List.mem_assoc name (List.filteri (fun j _ -> j < i) tenants) then
        invalid_arg
          (Printf.sprintf "Engine.create: duplicate tenant %S" name))
    tenants;
  let fuse = Fuse.env_enabled () in
  let sanitize = Echo_analysis.Sanitize.env_mode () in
  let runtime =
    match runtime with Some r -> r | None -> Parallel.default ()
  in
  {
    cache = Plan_cache.create ?cap_bytes:cache_bytes ();
    tenants;
    max_batch;
    runtime;
    fuse;
    sanitize;
    keys = Hashtbl.create 16;
    fed = Hashtbl.create 16;
  }

let cache t = t.cache

(* {2 Request parsing} *)

let kvs_of toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when i > 0 ->
        (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | _ ->
        reject "malformed token %S — requests are VERB key=value ..." tok)
    toks

let check_keys ~verb ~allowed kvs =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        reject "unknown key %S for %s (allowed: %s)" k verb
          (String.concat ", " allowed))
    kvs;
  List.iteri
    (fun i (k, _) ->
      if List.mem_assoc k (List.filteri (fun j _ -> j < i) kvs) then
        reject "duplicate key %S for %s" k verb)
    kvs

let int_field kvs key ~default =
  match List.assoc_opt key kvs with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> reject "bad value for %s: %S (want a positive integer)" key v)

let float_field kvs key ~default =
  match List.assoc_opt key kvs with
  | None -> default
  | Some v -> (
    match float_of_string_opt v with
    | Some f when Float.is_finite f && f > 0.0 -> f
    | _ -> reject "bad value for %s: %S (want a positive number)" key v)

let spec_keys =
  [
    "model"; "hidden"; "embed"; "layers"; "seq_len"; "batch"; "vocab"; "seed";
    "dropout"; "tenant";
  ]

let cell_of name =
  match name with
  | "lm" -> Recurrent.Lstm
  | "peephole-lm" -> Recurrent.Peephole
  | "gru-lm" -> Recurrent.Gru
  | "rnn-lm" -> Recurrent.Vanilla
  | _ -> reject "unknown model %S (lm|peephole-lm|gru-lm|rnn-lm)" name

let spec_of kvs =
  let cell = cell_of (Option.value ~default:"lm" (List.assoc_opt "model" kvs)) in
  let hidden = int_field kvs "hidden" ~default:32 in
  let vocab = int_field kvs "vocab" ~default:50 in
  if vocab < 2 then reject "bad value for vocab: %d (want >= 2)" vocab;
  let dropout =
    match List.assoc_opt "dropout" kvs with
    | None -> 0.0
    | Some v -> (
      match float_of_string_opt v with
      | Some p when p >= 0.0 && p < 1.0 -> p
      | _ -> reject "bad value for dropout: %S (want 0 <= p < 1)" v)
  in
  {
    Language_model.vocab;
    embed = int_field kvs "embed" ~default:hidden;
    hidden;
    layers = int_field kvs "layers" ~default:1;
    seq_len = int_field kvs "seq_len" ~default:8;
    batch = int_field kvs "batch" ~default:4;
    dropout;
    cell;
    seed = int_field kvs "seed" ~default:42;
  }

let budget_of t kvs =
  match List.assoc_opt "tenant" kvs with
  | None -> None
  | Some name -> (
    match List.assoc_opt name t.tenants with
    | Some bytes -> Some (name, bytes)
    | None ->
      reject "unknown tenant %S (known: %s)" name
        (if t.tenants = [] then "none"
         else String.concat ", " (List.map fst t.tenants)))

(* {2 Verbs} *)

let training_graph lm =
  (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph

(* The cache key of a spec's graph, calling [graph] only when the
   (kind, spec, budget) triple has never been keyed on this engine. *)
let key_of t kind cfg budget_bytes graph =
  match Hashtbl.find_opt t.keys (kind, cfg, budget_bytes) with
  | Some key -> key
  | None ->
    let key =
      Pipeline.cache_key ~runtime:t.runtime ~fuse:t.fuse ~sanitize:t.sanitize
        ?budget_bytes (graph ())
    in
    Hashtbl.replace t.keys (kind, cfg, budget_bytes) key;
    key

let compile t ?budget_bytes graph =
  Pipeline.compile_graph ?budget_bytes ~runtime:t.runtime ~fuse:t.fuse
    ~sanitize:t.sanitize graph

let training_key t cfg budget_bytes =
  key_of t Training cfg budget_bytes (fun () ->
      training_graph (Language_model.build cfg))

let do_compile t kvs =
  check_keys ~verb:"compile" ~allowed:spec_keys kvs;
  let cfg = spec_of kvs in
  let budget_bytes = Option.map snd (budget_of t kvs) in
  let key = training_key t cfg budget_bytes in
  let exe, hit =
    Plan_cache.fetch t.cache ~key ~compile:(fun () ->
        (* The graph is rebuilt here rather than threaded from [key_of]:
           on a plan-cache hit no build happens at all, which is the
           latency the warm path is measured on. *)
        compile t ?budget_bytes (training_graph (Language_model.build cfg)))
  in
  Printf.sprintf "ok key=%s cached=%b footprint=%d" key hit
    (Executor.footprint_bytes (Pipeline.executor exe))

let do_train t kvs =
  check_keys ~verb:"train"
    ~allowed:(("steps" :: "lr" :: "corpus-seed" :: spec_keys))
    kvs;
  let cfg = spec_of kvs in
  let budget_bytes = Option.map snd (budget_of t kvs) in
  let steps = int_field kvs "steps" ~default:4 in
  let lr = float_field kvs "lr" ~default:0.5 in
  let corpus_seed = int_field kvs "corpus-seed" ~default:5 in
  let lm = Language_model.build cfg in
  let corpus =
    Corpus.generate ~seed:corpus_seed ~vocab:cfg.Language_model.vocab
      ~length:
        (((steps + 2) * cfg.Language_model.batch * cfg.Language_model.seq_len)
        + 1)
  in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      (Corpus.lm_batches corpus ~batch:cfg.Language_model.batch
         ~seq_len:cfg.Language_model.seq_len ~steps)
  in
  (* A serve request has no fault key: the process's [ECHO_FAULTS] must not
     reach it, or a malformed plan there would fail every drain. *)
  let result =
    Loop.train
      ~graph:(training_graph lm)
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr }))
      ~faults:Echo_runtime.Fault.none ?budget_bytes ~runtime:t.runtime
      ~fuse:t.fuse ~sanitize:t.sanitize
      ~cache:(Plan_cache.hook t.cache)
      ~batches ()
  in
  Printf.sprintf "ok steps=%d losses=%s"
    (List.length result.Loop.losses)
    (String.concat "," (List.map (Printf.sprintf "%h") result.Loop.losses))

(* Lint: run the full Echo-verify layer (classic checkers + the static
   race/partition-disjointness analysis) over the spec's compiled
   executable and render every finding as one line. The compile itself
   goes through the plan cache, so linting a warm spec re-checks the
   cached artifact without recompiling. *)
let do_lint t kvs =
  check_keys ~verb:"lint" ~allowed:spec_keys kvs;
  let cfg = spec_of kvs in
  let budget_bytes = Option.map snd (budget_of t kvs) in
  let key = training_key t cfg budget_bytes in
  let exe, hit =
    Plan_cache.fetch t.cache ~key ~compile:(fun () ->
        compile t ?budget_bytes (training_graph (Language_model.build cfg)))
  in
  let report = Echo_diag.Report.create () in
  Echo_diag.Report.append ~into:report
    (Pipeline.verify (Pipeline.Executable exe));
  Echo_diag.Report.append ~into:report (Pipeline.race_verify exe);
  let diags = Echo_diag.Report.diags report in
  String.concat "\n"
    (Printf.sprintf "ok findings=%d errors=%d warnings=%d cached=%b"
       (List.length diags)
       (Echo_diag.Report.error_count report)
       (Echo_diag.Report.warning_count report)
       hit
    :: List.map Echo_diag.to_string diags)

let do_stats t =
  let s = Plan_cache.stats t.cache in
  Printf.sprintf "ok hits=%d misses=%d evictions=%d entries=%d bytes=%d"
    s.Plan_cache.hits s.Plan_cache.misses s.Plan_cache.evictions
    s.Plan_cache.entries s.Plan_cache.bytes

(* {2 Eval batching} *)

type eval_req = {
  idx : int;  (** position in the drain, for response routing *)
  cfg : Language_model.config;  (** canonical: batch = 1, dropout = 0 *)
  tokens : int array;  (** length [cfg.seq_len + 1] *)
  tenant : (string * int) option;
}

let parse_eval t ~idx kvs =
  check_keys ~verb:"eval" ~allowed:("tokens" :: spec_keys) kvs;
  let cfg = spec_of kvs in
  let tenant = budget_of t kvs in
  let tokens =
    match List.assoc_opt "tokens" kvs with
    | None -> reject "eval needs tokens=i,j,k,... (comma-separated ids)"
    | Some s ->
      Array.of_list
        (List.map
           (fun v ->
             match int_of_string_opt v with
             | Some n when n >= 0 && n < cfg.Language_model.vocab -> n
             | _ ->
               reject "bad token %S (want an id in 0..%d)" v
                 (cfg.Language_model.vocab - 1))
           (String.split_on_char ',' s))
  in
  if Array.length tokens < 2 then
    reject "eval needs at least 2 tokens (context and next token)";
  {
    idx;
    cfg =
      {
        cfg with
        Language_model.seq_len = Array.length tokens - 1;
        batch = 1;
        dropout = 0.0;
      };
    tokens;
    tenant;
  }

(* Two requests batch together iff their canonical configs agree — same
   structure, same parameters, same sequence length. *)
let group_key r =
  let c = r.cfg in
  Printf.sprintf "%s/%d/%d/%d/%d/%d/%d"
    (Recurrent.kind_to_string c.Language_model.cell)
    c.Language_model.hidden c.Language_model.embed c.Language_model.layers
    c.Language_model.vocab c.Language_model.seed c.Language_model.seq_len

(* Fairness: interleave the group's members round-robin across tenants, in
   first-appearance order, so a tenant flooding the queue cannot push the
   others' requests out of the early (and earliest-answered) chunks. *)
let round_robin reqs =
  let order = ref [] in
  let queues : (string, eval_req Queue.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let name = match r.tenant with Some (n, _) -> n | None -> "" in
      let q =
        match Hashtbl.find_opt queues name with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace queues name q;
          order := name :: !order;
          q
      in
      Queue.add r q)
    reqs;
  let order = List.rev !order in
  let out = ref [] in
  let drained = ref false in
  while not !drained do
    drained := true;
    List.iter
      (fun name ->
        let q = Hashtbl.find queues name in
        if not (Queue.is_empty q) then begin
          out := Queue.pop q :: !out;
          drained := false
        end)
      order
  done;
  List.rev !out

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let head, rest = take n [] l in
    head :: chunk n rest

(* One stacked executor step over [reqs] (all same canonical config):
   request [j]'s step-[t] ids live in time-major row [t*k + j]. Every op
   between the token ids and the logits is row-independent and the kernels
   are bit-identical under partitioning, so each row's logits — and the
   host-side NLL folded over them in ascending-[t] order — are bit-identical
   to a [k = 1] run of the same request.

   A warm chunk answers from the plan cache alone: the memoised key finds
   the entry, and when the entry's [fed] record names this very executor
   and spec, its parameters are still in place, so only the ids are set.
   The model is built (and its parameters fed) only when the key, the
   entry or the record misses: a first request, another [seed] on the same
   structure, a recompile after eviction. *)
let eval_stacked t reqs =
  let k = List.length reqs in
  let r0 = List.hd reqs in
  let t_len = r0.cfg.Language_model.seq_len in
  let cfg = { r0.cfg with Language_model.batch = k } in
  let built =
    lazy
      (let lm = Language_model.build cfg in
       (lm, Graph.create [ lm.Language_model.logits ]))
  in
  let forward () = snd (Lazy.force built) in
  let budget_bytes =
    List.fold_left
      (fun acc r ->
        match (r.tenant, acc) with
        | None, acc -> acc
        | Some (_, b), None -> Some b
        | Some (_, b), Some a -> Some (min a b))
      None reqs
  in
  let key = key_of t Forward cfg budget_bytes forward in
  let exe, _ =
    Plan_cache.fetch t.cache ~key ~compile:(fun () ->
        compile t ?budget_bytes (forward ()))
  in
  let e = Pipeline.executor exe in
  let toks = Array.of_list (List.map (fun r -> r.tokens) reqs) in
  let ids =
    Tensor.init
      [| t_len * k |]
      (fun idx ->
        let row = idx.(0) in
        float_of_int toks.(row mod k).(row / k))
  in
  let holds r =
    r.spec = cfg
    && match Weak.get r.executor 0 with Some e' -> e' == e | None -> false
  in
  (match Hashtbl.find_opt t.fed key with
  | Some r when holds r -> Executor.set_input e r.token_slot ids
  | _ ->
    (* Cache-hit executors belong to whichever build populated the entry,
       so the nodes resolve by name; params the graph buried are skipped.
       The record goes first, so a feed that raises leaves none behind. *)
    Hashtbl.remove t.fed key;
    let lm = fst (Lazy.force built) in
    let token_slot =
      match Executor.input_slot e lm.Language_model.token_input with
      | Some s -> s
      | None -> invalid_arg "Engine.eval: the executable has no token input"
    in
    Executor.set_input e token_slot ids;
    List.iter
      (fun (node, v) -> Executor.feed e node v)
      (Params.bindings lm.Language_model.model.Model.params);
    let executor = Weak.create 1 in
    Weak.set executor 0 (Some e);
    Hashtbl.replace t.fed key { executor; spec = cfg; token_slot });
  Executor.run e;
  let logits = (Executor.outputs e).(0) in
  List.mapi
    (fun j r ->
      let acc = ref 0.0 in
      for step = 0 to t_len - 1 do
        let row =
          Tensor.slice ~axis:0 ~lo:((step * k) + j) ~hi:((step * k) + j + 1)
            logits
        in
        let lp = Tensor.log_softmax row in
        acc := !acc -. Tensor.get lp [| 0; r.tokens.(step + 1) |]
      done;
      ( r.idx,
        Printf.sprintf "ok loss=%h batched=%d" (!acc /. float_of_int t_len) k ))
    reqs

let budget_err ~requested_bytes ~budget_bytes =
  Printf.sprintf "err budget exceeded: requested=%d budget=%d" requested_bytes
    budget_bytes

let rec eval_chunk t reqs =
  match eval_stacked t reqs with
  | results -> results
  | exception Executor.Budget_exceeded { requested_bytes; budget_bytes }
    when List.length reqs = 1 ->
    [ ((List.hd reqs).idx, budget_err ~requested_bytes ~budget_bytes) ]
  | exception Executor.Budget_exceeded _ ->
    (* The stacked batch crossed the tightest member budget; fall back to
       per-request execution, each under its own budget. *)
    List.concat_map (fun r -> eval_chunk t [ r ]) reqs

(* {2 Dispatch} *)

let immediate t verb kvs =
  match verb with
  | "ping" ->
    check_keys ~verb:"ping" ~allowed:[] kvs;
    "ok pong"
  | "shutdown" ->
    check_keys ~verb:"shutdown" ~allowed:[] kvs;
    "ok bye"
  | "stats" ->
    check_keys ~verb:"stats" ~allowed:[] kvs;
    do_stats t
  | "compile" -> do_compile t kvs
  | "train" -> do_train t kvs
  | "lint" -> do_lint t kvs
  | _ ->
    reject "unknown verb %S (ping|stats|compile|train|lint|eval|shutdown)" verb

let exec_all t lines =
  let n = List.length lines in
  let responses = Array.make n "" in
  let evals = ref [] in
  List.iteri
    (fun idx line ->
      let toks =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun s -> s <> "")
      in
      match toks with
      | [] -> responses.(idx) <- "err empty request"
      | verb :: rest -> (
        try
          let kvs = kvs_of rest in
          if verb = "eval" then evals := parse_eval t ~idx kvs :: !evals
          else responses.(idx) <- immediate t verb kvs
        with
        | Reject msg -> responses.(idx) <- "err " ^ msg
        | Executor.Budget_exceeded { requested_bytes; budget_bytes } ->
          responses.(idx) <- budget_err ~requested_bytes ~budget_bytes))
    lines;
  (* Coalesce the drain's eval requests: same-shape groups, round-robin
     across tenants, chunks of at most [max_batch] per stacked step. *)
  let evals = List.rev !evals in
  let group_order = ref [] in
  let groups : (string, eval_req list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let key = group_key r in
      match Hashtbl.find_opt groups key with
      | Some rs -> Hashtbl.replace groups key (r :: rs)
      | None ->
        Hashtbl.replace groups key [ r ];
        group_order := key :: !group_order)
    evals;
  List.iter
    (fun key ->
      let members = round_robin (List.rev (Hashtbl.find groups key)) in
      List.iter
        (fun reqs ->
          List.iter
            (fun (idx, resp) -> responses.(idx) <- resp)
            (eval_chunk t reqs))
        (chunk t.max_batch members))
    (List.rev !group_order);
  Array.to_list responses

let exec t line =
  match exec_all t [ line ] with
  | [ resp ] -> resp
  | _ -> assert false
