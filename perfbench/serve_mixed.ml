(* serve-mixed: [Engine.exec_all] at one domain with max_batch 8; one op is
   one drain. Most drains are eval batches that the engine stacks into
   grouped forward steps; the rest are compiles, short trains and lints
   that read through, and churn, the plan cache. Here the compiler and the
   executor run many tiny steps instead of a few large ones, and the kernel
   runtime does little, so a batching or cache change shows on this
   workload only. *)

module Engine = Echo_serve.Engine
module Plan_cache = Echo_serve.Plan_cache
module H = Harness

let cells = [ "lm"; "gru-lm"; "rnn-lm"; "peephole-lm" ]
let hiddens = [ 16; 32; 48 ]
let seq_lens = [ 6; 8; 12 ]
let vocab = 64
let max_batch = 8
let tenants = [ ("t0", 1 lsl 28); ("t1", 1 lsl 28); ("t2", 1 lsl 28) ]

(* About a quarter of the pool's total footprint (10.5 MB over the 36
   training graphs and 72 stacked eval graphs), so hits, misses and
   evictions all carry load. *)
let cache_bytes = 2_500_000

(* Eval drains: one spec, two token lengths split [a, 8 - a] with a in
   3..5, tokens drawn from a small per-length pool. *)
let eval_lens = [| 7; 11 |]
let token_pool = 8

(* The spec pool in a fixed Zipf rank order (independent of the seed, so
   the set-up's hot set and the plan cache it leaves are too). *)
let pool =
  Array.of_list
    (List.concat_map
       (fun h -> List.concat_map (fun s -> List.map (fun c -> (c, h, s)) cells) seq_lens)
       hiddens)

let zipf_s = 1.1
let weights = Array.mapi (fun r _ -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) pool
let total_weight = Array.fold_left ( +. ) 0.0 weights

let zipf rng =
  let u = Echo_tensor.Rng.float rng *. total_weight in
  let rec go i acc =
    if i >= Array.length pool - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  pool.(go 0 0.0)

let hot = 12

let config =
  [
    ("pool", "lm gru-lm rnn-lm peephole-lm x hidden 16/32/48 x seq_len 6/8/12, vocab 64, batch 4");
    ("mix", "60% eval x8 (3 tenants, 2 lengths), 25% compile, 10% train steps=2, 5% lint");
    ("zipf_s", string_of_float zipf_s);
    ("cache_bytes", string_of_int cache_bytes);
    ("max_batch", string_of_int max_batch);
    ("domains", "1");
    ("fusion", "on");
    ("sanitize", "off");
  ]

let spec (c, h, s) = Printf.sprintf "model=%s hidden=%d seq_len=%d batch=4 vocab=%d" c h s vocab
let eval_spec (c, h, _) = Printf.sprintf "model=%s hidden=%d vocab=%d" c h vocab

type kind = Eval | Compile | Train | Lint

type drain = {
  kind : kind;
  lines : string list;
  keys : string option list;  (** an eval line's request text without its tenant *)
}

let one kind line = { kind; lines = [ line ]; keys = [ None ] }

type gen = { rng : Echo_tensor.Rng.t; toks : string array array; mutable n : int }

let gen seed =
  let rng = Echo_tensor.Rng.create seed in
  let toks =
    Array.map
      (fun len ->
        Array.init token_pool (fun _ ->
            String.concat ","
              (List.init len (fun _ -> string_of_int (Echo_tensor.Rng.int rng vocab)))))
      eval_lens
  in
  { rng; toks; n = 0 }

let tenant g =
  g.n <- g.n + 1;
  fst (List.nth tenants (g.n mod List.length tenants))

let eval_drain g sp ~a =
  let keys =
    List.init max_batch (fun j ->
        let l = if j < a then 0 else 1 in
        Printf.sprintf "eval %s tokens=%s" (eval_spec sp)
          g.toks.(l).(Echo_tensor.Rng.int g.rng token_pool))
  in
  {
    kind = Eval;
    lines = List.map (fun k -> Printf.sprintf "%s tenant=%s" k (tenant g)) keys;
    keys = List.map Option.some keys;
  }

let next g =
  let u = Echo_tensor.Rng.float g.rng in
  let sp = zipf g.rng in
  if u < 0.60 then eval_drain g sp ~a:(3 + Echo_tensor.Rng.int g.rng 3)
  else if u < 0.85 then one Compile (Printf.sprintf "compile %s tenant=%s" (spec sp) (tenant g))
  else if u < 0.95 then
    one Train
      (Printf.sprintf "train %s steps=2 corpus-seed=%d tenant=%s" (spec sp)
         (1 + Echo_tensor.Rng.int g.rng 1000) (tenant g))
  else one Lint (Printf.sprintf "lint %s tenant=%s" (spec sp) (tenant g))

(* [key=value] of a response's first line. *)
let field key resp =
  let first = List.hd (String.split_on_char '\n' resp) in
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' first)

let ok resp = String.length resp >= 2 && String.sub resp 0 2 = "ok"

let engine () =
  Engine.create ~cache_bytes ~tenants ~max_batch ~runtime:Echo_tensor.Parallel.sequential ()

let run (ctx : H.ctx) =
  let untraced_s, traced_s = H.phases ctx in
  let pre = H.now () -. H.t_main in
  (* Set-up, [reps] times: a fresh engine whose plan cache is warmed with
     the hot specs' training graphs and stacked eval graphs. *)
  let setup () =
    let t0 = H.now () in
    let g = gen ctx.H.seed in
    let e = engine () in
    Array.iteri
      (fun r sp ->
        if r < hot then begin
          ignore (Engine.exec_all e [ Printf.sprintf "compile %s tenant=t0" (spec sp) ]);
          List.iter (fun a -> ignore (Engine.exec_all e (eval_drain g sp ~a).lines)) [ 3; 4; 5 ]
        end)
      pool;
    (H.now () -. t0, e, g)
  in
  let reps = List.init ctx.H.reps (fun _ -> setup ()) in
  let setup_s = pre +. H.median (Array.of_list (List.map (fun (d, _, _) -> d) reps)) in
  let _, e, g = List.nth reps (ctx.H.reps - 1) in
  let resident = (Plan_cache.stats (Engine.cache e)).Plan_cache.bytes in
  let input_digest =
    let preview = gen ctx.H.seed in
    H.digest_string (String.concat "\n" (List.concat (List.init 64 (fun _ -> (next preview).lines))))
  in
  (* The singleton oracle, outside set-up and timing: every eval request
     the stream can draw, answered alone by an engine of its own. *)
  let oracle = Hashtbl.create 256 in
  let solo = engine () in
  List.iter
    (fun c ->
      List.iter
        (fun h ->
          Array.iter
            (Array.iter (fun t ->
                 let key = Printf.sprintf "eval %s tokens=%s" (eval_spec (c, h, 0)) t in
                 let loss = field "loss" (Engine.exec solo key) in
                 Hashtbl.replace oracle key
                   (if ctx.H.wrong_reference then Some "0x1p+0" else loss)))
            g.toks)
        hiddens)
    cells;
  let classes = Hashtbl.create 1024 and batch_sizes = ref [] in
  let timed ops seconds =
    let deadline = H.now () +. seconds in
    while H.now () < deadline && ops.H.attempted < ctx.H.max_ops do
      let d = next g in
      incr H.current_op;
      let mk = H.mark () in
      let resps = H.span "serve.exec_all" (fun () -> Engine.exec_all e d.lines) in
      H.close ops mk;
      let bad =
        List.exists2
          (fun resp key ->
            (not (ok resp))
            ||
            match key with
            | None -> false
            | Some k -> field "loss" resp <> Hashtbl.find oracle k)
          resps d.keys
      in
      if bad then ops.H.failed <- ops.H.failed + 1;
      if !H.tracing then begin
        let cls =
          match d.kind with
          | Eval ->
            List.iter
              (fun r -> Option.iter (fun k -> batch_sizes := float_of_string k :: !batch_sizes) (field "batched" r))
              resps;
            "serve.eval_drain"
          | Compile ->
            if field "cached" (List.hd resps) = Some "true" then "serve.compile_hit" else "serve.compile_miss"
          | Train -> "serve.train"
          | Lint -> "serve.lint"
        in
        Hashtbl.replace classes !H.current_op cls
      end
    done
  in
  let ops = H.ops () in
  timed ops untraced_s;
  let traced, layer =
    if ctx.H.trace then begin
      let t = H.ops () in
      H.tracing := true;
      let s0 = H.span "serve.stats" (fun () -> Plan_cache.stats (Engine.cache e)) in
      timed t traced_s;
      let s1 = H.span "serve.stats" (fun () -> Plan_cache.stats (Engine.cache e)) in
      H.tracing := false;
      let class_ms cls =
        let n = ref 0 and total = ref 0.0 in
        List.iter
          (fun (s : H.span) ->
            if s.H.name = "serve.exec_all" && Hashtbl.find_opt classes s.H.op = Some cls then begin
              incr n;
              total := !total +. (s.H.t1 -. s.H.t0)
            end)
          !H.spans;
        if !n = 0 then 0.0 else 1000.0 *. !total /. float_of_int !n
      in
      let hits = s1.Plan_cache.hits - s0.Plan_cache.hits
      and misses = s1.Plan_cache.misses - s0.Plan_cache.misses in
      let sizes = Array.of_list !batch_sizes in
      ( Some t,
        [
          H.m "serve.eval_drain_ms" "ms" (class_ms "serve.eval_drain");
          H.m "serve.compile_hit_ms" "ms" (class_ms "serve.compile_hit");
          H.m "serve.compile_miss_ms" "ms" (class_ms "serve.compile_miss");
          H.m "serve.train_ms" "ms" (class_ms "serve.train");
          H.m "serve.lint_ms" "ms" (class_ms "serve.lint");
          H.m "serve.cache_hit_ratio" "ratio"
            (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
          H.m "serve.cache_evictions" "count"
            (float_of_int (s1.Plan_cache.evictions - s0.Plan_cache.evictions));
          H.m "serve.batch_size_mean" "count"
            (if sizes = [||] then 0.0
             else Array.fold_left ( +. ) 0.0 sizes /. float_of_int (Array.length sizes));
        ] )
    end
    else (None, [])
  in
  {
    Report.setup_s;
    ops;
    footprint_bytes = float_of_int resident;
    (* serve compiles every graph at the stash-all baseline *)
    footprint_reduction_x = 1.0;
    sim_step_ms = 0.0;
    sim_overhead_x = 1.0;
    traced;
    layer;
    config = config @ [ ("input_digest", input_digest) ];
  }
