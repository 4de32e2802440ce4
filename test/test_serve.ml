(* Tests for the echoc serve stack: the content-addressed plan cache
   (hit/miss, cost-aware eviction under a byte cap, single-flight
   compiles), the request engine (protocol, same-shape eval batching,
   tenant budgets), the real-corpus loader, and the Unix-socket server end
   to end.

   The load-bearing properties are differential: a cache-served executable
   must train bit-identically to a cold-compiled one (the served executor
   comes from a different build, so the loop feeds it by name), and a
   stacked eval batch must score every member bit-identically to a serial
   run — at every domain count. *)

open Echo_tensor
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Language_model = Echo_models.Language_model
module Model = Echo_models.Model
module Params = Echo_models.Params
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Corpus = Echo_workloads.Corpus
module Plan_cache = Echo_serve.Plan_cache
module Engine = Echo_serve.Engine

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let lm_cfg ?(hidden = 8) ?(batch = 2) ?(seq_len = 4) ?(vocab = 20) () =
  {
    Language_model.ptb_default with
    Language_model.hidden;
    embed = hidden;
    layers = 1;
    seq_len;
    batch;
    vocab;
    dropout = 0.0;
    seed = 42;
  }

let training_graph cfg =
  let lm = Language_model.build cfg in
  (lm, (Model.training lm.Language_model.model).Echo_autodiff.Grad.graph)

(* Plan_cache: hit/miss accounting and physical sharing. *)

let test_cache_hit_miss () =
  let cache = Plan_cache.create () in
  let _, graph = training_graph (lm_cfg ()) in
  let key = Pipeline.cache_key graph in
  let compiles = ref 0 in
  let compile () =
    incr compiles;
    Pipeline.compile_graph graph
  in
  let e1, hit1 = Plan_cache.fetch cache ~key ~compile in
  let e2, hit2 = Plan_cache.fetch cache ~key ~compile in
  check_bool "first is a miss" false hit1;
  check_bool "second is a hit" true hit2;
  check_int "one compile" 1 !compiles;
  check_bool "same executable served" true
    (Pipeline.executor e1 == Pipeline.executor e2);
  let s = Plan_cache.stats cache in
  check_int "hits" 1 s.Plan_cache.hits;
  check_int "misses" 1 s.Plan_cache.misses;
  check_int "entries" 1 s.Plan_cache.entries;
  check_int "bytes = footprint" (Executor.footprint_bytes (Pipeline.executor e1))
    s.Plan_cache.bytes

(* Distinct knobs must produce distinct keys even on one graph. *)

let test_cache_key_separates_knobs () =
  let _, graph = training_graph (lm_cfg ()) in
  let base = Pipeline.cache_key graph in
  check_bool "budget changes the key" true
    (base <> Pipeline.cache_key ~budget_bytes:1_000_000 graph);
  check_bool "fusion changes the key" true
    (Pipeline.cache_key ~fuse:true graph <> Pipeline.cache_key ~fuse:false graph);
  (* [~oversubscribe:true] keeps the requested domain count even on a
     single-core machine, where [create ~domains:2] would clamp to 1 and
     legitimately produce the same key. *)
  let pool2 = Parallel.create ~domains:2 ~oversubscribe:true () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool2) (fun () ->
      check_bool "runtime changes the key" true
        (Pipeline.cache_key ~runtime:(Parallel.create ~domains:1 ()) graph
        <> Pipeline.cache_key ~runtime:pool2 graph));
  let other = Echo_core.Planner.instantiate "recompute-all" in
  check_bool "planner changes the key" true
    (base <> Pipeline.cache_key ~planner:other graph)

(* GreedyDual-Size-Frequency eviction under the byte cap. Keys are free
   labels here, so one compiled graph fetched under several keys gives
   entries of exactly equal cost per byte. *)

let cache_fetch cache (key, g) =
  snd
    (Plan_cache.fetch cache ~key ~compile:(fun () -> Pipeline.compile_graph g))

let footprint g =
  Executor.footprint_bytes (Pipeline.executor (Pipeline.compile_graph g))

(* Rebuild cost per byte, as the cache prices an entry. *)
let cost_per_byte g =
  let e = Pipeline.executor (Pipeline.compile_graph g) in
  float_of_int (Echo_ir.Graph.node_count (Executor.graph e))
  /. float_of_int (Executor.footprint_bytes e)

let test_cache_frequency () =
  let _, g = training_graph (lm_cfg ~hidden:4 ()) in
  let a = ("a", g) and b = ("b", g) and c = ("c", g) in
  (* Room for two entries, not three. *)
  let cache = Plan_cache.create ~cap_bytes:((5 * footprint g) / 2) () in
  List.iter (fun k -> ignore (cache_fetch cache k)) [ a; a; a; b; c ];
  let s = Plan_cache.stats cache in
  check_int "one eviction" 1 s.Plan_cache.evictions;
  check_int "two retained" 2 s.Plan_cache.entries;
  (* a is the least recently fetched, but used three times: the newer,
     once-used b goes (it ties with c and is the older of the two). *)
  check_bool "twice-hit entry survives" true (cache_fetch cache a);
  check_bool "newer once-used entry evicted" false (cache_fetch cache b)

let test_cache_cost_per_byte () =
  let _, g_small = training_graph (lm_cfg ~hidden:4 ()) in
  let _, g_big = training_graph (lm_cfg ~hidden:8 ()) in
  check_bool "the smaller graph is dearer per byte" true
    (cost_per_byte g_small > cost_per_byte g_big);
  let cap = (2 * footprint g_small) + footprint g_big - 1 in
  let cache = Plan_cache.create ~cap_bytes:cap () in
  let x1 = ("x1", g_small) and y = ("y", g_big) and x2 = ("x2", g_small) in
  List.iter (fun k -> ignore (cache_fetch cache k)) [ x1; y; x2 ];
  let s = Plan_cache.stats cache in
  check_int "one eviction" 1 s.Plan_cache.evictions;
  check_bool "under cap" true (s.Plan_cache.bytes <= cap);
  (* Recency alone would evict x1, the oldest. *)
  check_bool "higher cost per byte survives" true (cache_fetch cache x1);
  check_bool "lower cost per byte evicted" false (cache_fetch cache y)

(* Aging: each eviction raises the inflation to the victim's priority, so
   newcomers enter ever higher and an entry hot once, then never asked for
   again, is evicted after enough newcomer misses. *)
let test_cache_aging () =
  let _, g = training_graph (lm_cfg ~hidden:4 ()) in
  let hot_after newcomers =
    let cache = Plan_cache.create ~cap_bytes:((5 * footprint g) / 2) () in
    List.iter (fun _ -> ignore (cache_fetch cache ("hot", g))) [ 1; 2; 3 ];
    for i = 1 to newcomers do
      ignore (cache_fetch cache (Printf.sprintf "new%d" i, g))
    done;
    cache_fetch cache ("hot", g)
  in
  check_bool "hot entry outlives the first newcomer evictions" true
    (hot_after 2);
  check_bool "stale hot entry evicted once newcomers raise L" false
    (hot_after 10)

let test_cache_over_cap_not_retained () =
  let _, g = training_graph (lm_cfg ~hidden:4 ()) in
  let tiny = Plan_cache.create ~cap_bytes:16 () in
  let e, hit =
    Plan_cache.fetch tiny ~key:"g" ~compile:(fun () -> Pipeline.compile_graph g)
  in
  check_bool "served" false hit;
  check_bool "executable works" true
    (Executor.footprint_bytes (Pipeline.executor e) > 16);
  check_int "not retained" 0 (Plan_cache.stats tiny).Plan_cache.entries

(* The rebuild cost is a node count, not a clock: two caches fed one fetch
   sequence evict alike and end with identical stats. *)
let test_cache_deterministic () =
  let graphs =
    Array.of_list
      (List.map (fun h -> snd (training_graph (lm_cfg ~hidden:h ()))) [ 4; 6; 8 ])
  in
  let compiled = Array.map Pipeline.compile_graph graphs in
  let cap = 2 * footprint graphs.(2) in
  let rng = Rng.create 11 in
  let sequence =
    List.init 200 (fun _ ->
        let i = Rng.int rng 3 in
        (Printf.sprintf "k%d/%d" (Rng.int rng 4) i, i))
  in
  let replay () =
    let cache = Plan_cache.create ~cap_bytes:cap () in
    let hits =
      List.map
        (fun (key, i) ->
          snd (Plan_cache.fetch cache ~key ~compile:(fun () -> compiled.(i))))
        sequence
    in
    (hits, Plan_cache.stats cache)
  in
  let hits1, s1 = replay () and hits2, s2 = replay () in
  check_bool "evictions happened" true (s1.Plan_cache.evictions > 0);
  check_bool "same hits and misses, fetch by fetch" true (hits1 = hits2);
  check_bool "identical stats" true (s1 = s2)

(* Single-flight: concurrent fetches of one missing key run exactly one
   compile; every domain receives the same executable. *)

let test_cache_single_flight () =
  let cache = Plan_cache.create () in
  let _, graph = training_graph (lm_cfg ()) in
  let key = Pipeline.cache_key graph in
  let compiles = Atomic.make 0 in
  let compile () =
    Atomic.incr compiles;
    (* Widen the race window so every domain is in-flight together. *)
    Unix.sleepf 0.05;
    Pipeline.compile_graph graph
  in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Plan_cache.fetch cache ~key ~compile))
  in
  let results = List.map Domain.join workers in
  check_int "exactly one compile" 1 (Atomic.get compiles);
  let exes = List.map (fun (e, _) -> Pipeline.executor e) results in
  List.iter
    (fun e -> check_bool "all share one executable" true (e == List.hd exes))
    exes;
  check_int "one miss" 1 (Plan_cache.stats cache).Plan_cache.misses;
  check_int "three waiter hits" 3 (Plan_cache.stats cache).Plan_cache.hits

(* A failing compile releases the key instead of wedging later fetches. *)

let test_cache_failed_compile_releases_key () =
  let cache = Plan_cache.create () in
  let _, graph = training_graph (lm_cfg ()) in
  let key = Pipeline.cache_key ~budget_bytes:1 graph in
  check_bool "budget aborts" true
    (match
       Plan_cache.fetch cache ~key ~compile:(fun () ->
           Pipeline.compile_graph ~budget_bytes:1 graph)
     with
    | _ -> false
    | exception Executor.Budget_exceeded _ -> true);
  let _, hit =
    Plan_cache.fetch cache ~key ~compile:(fun () -> Pipeline.compile_graph graph)
  in
  check_bool "key released for the next fetch" false hit

(* The differential core: a cache-served executable — compiled by a
   *different build* of the same structure, so every node id differs —
   trains bit-identically to a cold compile, at 1, 2 and 4 domains. *)

let train_losses ~runtime ?cache ?(corpus_length = 200) () =
  let cfg = lm_cfg () in
  let lm, graph = training_graph cfg in
  let corpus =
    Corpus.generate ~seed:5 ~vocab:cfg.Language_model.vocab
      ~length:corpus_length
  in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [
          (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels);
        ])
      (Corpus.lm_batches corpus ~batch:cfg.Language_model.batch
         ~seq_len:cfg.Language_model.seq_len ~steps:3)
  in
  let result =
    Loop.train ~graph
      ~params:(Params.bindings lm.Language_model.model.Model.params)
      ~optimizer:(Optimizer.create (Optimizer.Sgd { lr = 0.5 }))
      ~runtime ?cache ~batches ()
  in
  result.Loop.losses

let test_cached_train_bit_identical () =
  List.iter
    (fun domains ->
      let runtime = Parallel.create ~domains () in
      let cold = train_losses ~runtime () in
      let cache = Plan_cache.create () in
      (* Prime the cache from an independent build: different node ids,
         same fingerprint. *)
      let _, graph = training_graph (lm_cfg ()) in
      let key = Pipeline.cache_key ~runtime graph in
      ignore
        (Plan_cache.fetch cache ~key ~compile:(fun () ->
             Pipeline.compile_graph ~runtime graph));
      let warm = train_losses ~runtime ~cache:(Plan_cache.hook cache) () in
      let s = Plan_cache.stats cache in
      check_bool
        (Printf.sprintf "training compile served from cache (%d domains)"
           domains)
        true
        (s.Plan_cache.hits >= 1);
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "cached losses bit-identical (%d domains)" domains)
        cold warm)
    [ 1; 2; 4 ]

(* Same-shape eval batching: the stacked step scores every request
   bit-identically to serial execution, at 1, 2 and 4 domains. *)

let eval_lines =
  [
    "eval hidden=8 vocab=20 tokens=1,2,3,4,5";
    "eval hidden=8 vocab=20 tokens=5,4,3,2,1";
    "eval hidden=8 vocab=20 tokens=7,7,7,7,7";
    "eval hidden=8 vocab=20 tokens=0,19,3,11,6";
  ]

let loss_of resp =
  Scanf.sscanf resp "ok loss=%h batched=%d" (fun l k -> (l, k))

let test_batched_eval_bit_identical () =
  List.iter
    (fun domains ->
      let runtime = Parallel.create ~domains () in
      let batched_engine = Engine.create ~runtime () in
      let batched = Engine.exec_all batched_engine eval_lines in
      let serial_engine = Engine.create ~runtime () in
      let serial = List.map (Engine.exec serial_engine) eval_lines in
      List.iter2
        (fun b s ->
          let bl, bk = loss_of b and sl, sk = loss_of s in
          check_int
            (Printf.sprintf "stacked batch of %d (%d domains)"
               (List.length eval_lines) domains)
            (List.length eval_lines) bk;
          check_int "serial batch of 1" 1 sk;
          check_bool
            (Printf.sprintf "bit-identical loss (%d domains)" domains)
            true
            (Int64.equal (Int64.bits_of_float bl) (Int64.bits_of_float sl)))
        batched serial)
    [ 1; 2; 4 ]

(* Warm evals answer from the plan cache alone: a hit whose executable
   still holds the requested spec's parameters only sets the ids. Every
   path around that record — another seed on the same structure, a
   recompile after eviction, the per-request budget fallback — must answer
   byte for byte as a fresh engine answers the same request cold. *)

let eval_line ?(hidden = 8) ?(seed = 42) ?tenant toks =
  Printf.sprintf "eval hidden=%d vocab=20 seed=%d tokens=%s%s" hidden seed toks
    (match tenant with Some n -> " tenant=" ^ n | None -> "")

let fresh_answer ?tenants line = Engine.exec (Engine.create ?tenants ()) line

(* The canonical forward graph a chunk of [k] five-token [eval_line]s
   compiles. *)
let eval_forward ?hidden ~k () =
  let lm = Language_model.build (lm_cfg ?hidden ~batch:k ~seq_len:4 ()) in
  Echo_ir.Graph.create [ lm.Language_model.logits ]

let eval_footprint ~k = footprint (eval_forward ~k ())

let test_warm_eval_seed_interleaving () =
  let engine = Engine.create () in
  List.iter
    (fun seed ->
      let lines = List.map (eval_line ~seed) [ "1,2,3,4,5"; "5,4,3,2,1" ] in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d stacked = fresh engine" seed)
        (Engine.exec_all (Engine.create ()) lines)
        (Engine.exec_all engine lines);
      List.iter
        (fun line ->
          check_string
            (Printf.sprintf "seed %d single = fresh engine" seed)
            (fresh_answer line) (Engine.exec engine line))
        lines)
    [ 42; 7; 42; 42; 7 ];
  (* Seeds 42 and 7 share one structure, so one entry per batch size:
     two compiles (k = 2 and k = 1), every later chunk a hit. *)
  let s = Plan_cache.stats (Engine.cache engine) in
  check_int "one compile per batch size" 2 s.Plan_cache.misses;
  check_int "every other chunk a hit" 13 s.Plan_cache.hits

(* Hidden 4 is more than twice as dear per byte as hidden 8 (one
   structure, fewer bytes), so a hidden-4 newcomer evicts a hidden-8
   entry fetched twice. *)
let check_eval_pricing () =
  check_bool "hidden 4 outprices a twice-used hidden 8" true
    (cost_per_byte (eval_forward ~hidden:4 ~k:1 ())
    > 2.0 *. cost_per_byte (eval_forward ~k:1 ()))

let test_warm_eval_after_eviction () =
  (* Room for one k = 1 eval executable. a is fetched twice (its warm
     path), then b evicts it; every later miss evicts the other, since
     each eviction raises the inflation past the resident entry. *)
  check_eval_pricing ();
  let cap = eval_footprint ~k:1 + 1 in
  let engine = Engine.create ~cache_bytes:cap () in
  let a = eval_line "1,2,3,4,5" and b = eval_line ~hidden:4 "1,2,3,4,5" in
  let expect_a = fresh_answer a and expect_b = fresh_answer b in
  List.iter
    (fun (line, expected) ->
      check_string "answer = fresh engine" expected (Engine.exec engine line))
    [ (a, expect_a); (a, expect_a); (b, expect_b); (a, expect_a); (b, expect_b) ];
  check_bool "evictions happened" true
    ((Plan_cache.stats (Engine.cache engine)).Plan_cache.evictions >= 3)

(* The record holds its executable weakly: once the cache evicts the entry
   nothing keeps it alive. *)
let eval_executor_probe engine =
  let key = Pipeline.cache_key (eval_forward ~k:1 ()) in
  let exe, hit =
    Plan_cache.fetch (Engine.cache engine) ~key ~compile:(fun () ->
        Alcotest.fail "the eval executable should be cached")
  in
  check_bool "probe is a hit" true hit;
  let probe = Weak.create 1 in
  Weak.set probe 0 (Some (Pipeline.executor exe));
  probe

let test_evicted_eval_unreachable () =
  (* The probe's fetch is the entry's second use; the hidden-4 newcomer
     still outprices it. *)
  check_eval_pricing ();
  let cap = eval_footprint ~k:1 + 1 in
  let engine = Engine.create ~cache_bytes:cap () in
  ignore (Engine.exec engine (eval_line "1,2,3,4,5"));
  let probe = eval_executor_probe engine in
  Gc.full_major ();
  check_bool "cached executable alive" true (Weak.check probe 0);
  ignore (Engine.exec engine (eval_line ~hidden:4 "1,2,3,4,5"));
  check_int "entry evicted" 1
    (Plan_cache.stats (Engine.cache engine)).Plan_cache.evictions;
  Gc.full_major ();
  check_bool "evicted executable collected" false (Weak.check probe 0);
  (* The engine, and the record it keeps, outlive the probe. *)
  let line = eval_line "1,2,3,4,5" in
  check_string "recompiled answer = fresh engine" (fresh_answer line)
    (Engine.exec engine line)

let test_warm_eval_budget_fallback () =
  (* A budget that fits one request's forward step but not four stacked. *)
  let fit = eval_footprint ~k:1 in
  check_bool "stacked needs more" true (eval_footprint ~k:4 > fit);
  let tenants = [ ("mid", fit) ] in
  let engine = Engine.create ~tenants () in
  let lines =
    List.map
      (fun t -> eval_line ~tenant:"mid" t)
      [ "1,2,3,4,5"; "5,4,3,2,1"; "7,7,7,7,7"; "0,19,3,11,6" ]
  in
  let expected = List.map (fresh_answer ~tenants) lines in
  List.iter
    (fun _ ->
      let got = Engine.exec_all engine lines in
      List.iter2
        (fun e g ->
          check_string "fallback answer = fresh engine" e g;
          check_bool "answered at k = 1" true (snd (loss_of g) = 1))
        expected got)
    [ 1; 2; 3 ]

(* Tenants: unknown tenants are rejected by name; a tiny budget rejects
   compilation loudly; a batch mixing a budgeted tenant falls back without
   corrupting the unbudgeted request's result. *)

let test_tenant_budgets () =
  let engine =
    Engine.create ~tenants:[ ("tiny", 1); ("big", 64 * 1024 * 1024) ] ()
  in
  let r = Engine.exec engine "compile hidden=8 vocab=20 tenant=nosuch" in
  check_bool "unknown tenant named" true
    (String.length r >= 3
    && String.sub r 0 3 = "err"
    && String.length r > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    contains r "nosuch");
  let r = Engine.exec engine "compile hidden=8 vocab=20 tenant=tiny" in
  check_string "tiny budget rejected"
    "err budget exceeded: requested=" (String.sub r 0 31);
  let r = Engine.exec engine "compile hidden=8 vocab=20 tenant=big" in
  check_string "big budget compiles" "ok" (String.sub r 0 2);
  (* Batched eval with one member over budget: the stacked step falls back
     to singles; the unbudgeted member still gets the serial-identical
     loss, the budgeted one a loud rejection. *)
  let free_engine = Engine.create () in
  let expected, _ =
    loss_of (Engine.exec free_engine "eval hidden=8 vocab=20 tokens=1,2,3,4,5")
  in
  let responses =
    Engine.exec_all engine
      [
        "eval hidden=8 vocab=20 tokens=1,2,3,4,5";
        "eval hidden=8 vocab=20 tokens=5,4,3,2,1 tenant=tiny";
      ]
  in
  (match responses with
  | [ ok_resp; err_resp ] ->
    let l, _ = loss_of ok_resp in
    check_bool "unbudgeted member unharmed" true
      (Int64.equal (Int64.bits_of_float l) (Int64.bits_of_float expected));
    check_string "budgeted member rejected" "err budget exceeded: requested="
      (String.sub err_resp 0 31)
  | _ -> Alcotest.fail "two responses expected")

(* Protocol failure modes: loud, named errors; no silent fallbacks. *)

let test_protocol_errors () =
  let engine = Engine.create () in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.iter
    (fun (req, prefix) ->
      let resp = Engine.exec engine req in
      check_bool
        (Printf.sprintf "%S -> %S" req resp)
        true (starts_with prefix resp))
    [
      ("", "err empty request");
      ("bogus", "err unknown verb \"bogus\"");
      ("ping extra=1", "err unknown key \"extra\" for ping");
      ("compile hidden=nope", "err bad value for hidden: \"nope\"");
      ("compile hidden", "err malformed token \"hidden\"");
      ("compile model=resnet", "err unknown model \"resnet\"");
      ("compile hidden=8 hidden=9", "err duplicate key \"hidden\"");
      ("eval hidden=8 vocab=20", "err eval needs tokens=");
      ("eval hidden=8 vocab=20 tokens=1", "err eval needs at least 2 tokens");
      ("eval hidden=8 vocab=20 tokens=1,99", "err bad token \"99\"");
      ("compile hidden=8 tenant=t", "err unknown tenant \"t\"");
      ("ping", "ok pong");
    ];
  check_bool "create rejects bad tenants" true
    (match Engine.create ~tenants:[ ("a", 0) ] () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "create rejects duplicate tenants" true
    (match Engine.create ~tenants:[ ("a", 1); ("a", 2) ] () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Corpus.load_text: PTB-style ingest is a pure function of the file. *)

let test_corpus_load_text () =
  let path = Filename.temp_file "echo_corpus" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "the cat sat\nthe cat ran\n";
      close_out oc;
      let c = Corpus.load_text path in
      (* <eos>=0, then first-appearance order: the=1 cat=2 sat=3 ran=4 *)
      check_int "vocab" 5 (Corpus.vocab c);
      check_int "length" 8 (Corpus.length c);
      Alcotest.(check (list int))
        "token stream"
        [ 1; 2; 3; 0; 1; 2; 4; 0 ]
        (List.init (Corpus.length c) (Corpus.token c));
      Alcotest.(check (array string))
        "dictionary"
        [| "<eos>"; "the"; "cat"; "sat"; "ran" |]
        (Corpus.vocab_words c);
      (* Determinism: a second load builds the identical stream. *)
      let c' = Corpus.load_text path in
      Alcotest.(check (list int))
        "reload identical"
        (List.init (Corpus.length c) (Corpus.token c))
        (List.init (Corpus.length c') (Corpus.token c')));
  check_bool "empty corpus rejected" true
    (let empty = Filename.temp_file "echo_corpus" ".txt" in
     Fun.protect
       ~finally:(fun () -> Sys.remove empty)
       (fun () ->
         match Corpus.load_text empty with
         | _ -> false
         | exception Invalid_argument _ -> true));
  check_bool "missing file rejected" true
    (match Corpus.load_text "/nonexistent/echo.txt" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "directory rejected" true
    (match Corpus.load_text (Filename.get_temp_dir_name ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* End to end over the real Unix socket: the server in a domain, a scripted
   pipelined client session — compile miss, compile hit, batched evals,
   budget rejection, stats, shutdown — and the train response compared
   bit-for-bit against a direct Loop.train of the same request. *)

let read_lines fd n =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let count s = String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 s in
  while count (Buffer.contents buf) < n do
    let r = Unix.read fd chunk 0 (Bytes.length chunk) in
    if r = 0 then failwith "server closed early";
    Buffer.add_subbytes buf chunk 0 r
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let test_socket_end_to_end () =
  let socket = Filename.temp_file "echo_serve" ".sock" in
  Sys.remove socket;
  let engine =
    Engine.create ~tenants:[ ("tiny", 1) ] ~max_batch:8
      ~runtime:(Parallel.create ~domains:1 ())
      ()
  in
  let server = Domain.spawn (fun () -> Echo_serve.Server.serve ~socket engine) in
  (* The server binds asynchronously; poll for the socket file. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec connect () =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      fd
    with
    | fd -> fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      connect ()
  in
  let fd = connect () in
  let requests =
    [
      "ping";
      "compile hidden=8 seq_len=4 batch=2 vocab=20";
      "compile hidden=8 seq_len=4 batch=2 vocab=20";
      "train hidden=8 seq_len=4 batch=2 vocab=20 steps=3 lr=0.5";
      "eval hidden=8 vocab=20 tokens=1,2,3,4,5";
      "eval hidden=8 vocab=20 tokens=5,4,3,2,1";
      "compile hidden=8 seq_len=4 batch=2 vocab=20 tenant=tiny";
      "stats";
      "shutdown";
    ]
  in
  let payload = String.concat "\n" requests ^ "\n" in
  let _ = Unix.write_substring fd payload 0 (String.length payload) in
  let responses = read_lines fd (List.length requests) in
  Domain.join server;
  Unix.close fd;
  check_int "one response per request" (List.length requests)
    (List.length responses);
  let nth = List.nth responses in
  check_string "ping" "ok pong" (nth 0);
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  check_bool "first compile is a miss" true
    (starts_with "ok key=" (nth 1)
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    contains (nth 1) "cached=false");
  check_bool "second compile is a hit" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains (nth 2) "cached=true");
  (* The train response must be byte-identical to a direct Loop.train of
     the same request: same model, same synthetic corpus, sequential
     runtime — served through the cache entry the compile request created. *)
  (* Mirror the engine's synthetic train corpus: seed 5, length
     (steps+2)*batch*seq_len+1 for steps=3 batch=2 seq_len=4. *)
  let expected_losses =
    train_losses
      ~runtime:(Parallel.create ~domains:1 ())
      ~corpus_length:(((3 + 2) * 2 * 4) + 1)
      ()
  in
  check_string "train bit-identical to direct Loop.train"
    (Printf.sprintf "ok steps=%d losses=%s"
       (List.length expected_losses)
       (String.concat "," (List.map (Printf.sprintf "%h") expected_losses)))
    (nth 3);
  (* Pipelined evals coalesced into one stacked step... *)
  let l1, k1 = loss_of (nth 4) in
  let l2, k2 = loss_of (nth 5) in
  check_int "eval 1 batched" 2 k1;
  check_int "eval 2 batched" 2 k2;
  (* ...bit-identical to serial engine-level execution. *)
  let direct = Engine.create ~runtime:(Parallel.create ~domains:1 ()) () in
  let d1, _ = loss_of (Engine.exec direct "eval hidden=8 vocab=20 tokens=1,2,3,4,5") in
  let d2, _ = loss_of (Engine.exec direct "eval hidden=8 vocab=20 tokens=5,4,3,2,1") in
  check_bool "eval 1 bit-identical" true
    (Int64.equal (Int64.bits_of_float l1) (Int64.bits_of_float d1));
  check_bool "eval 2 bit-identical" true
    (Int64.equal (Int64.bits_of_float l2) (Int64.bits_of_float d2));
  check_string "budget rejection" "err budget exceeded: requested="
    (String.sub (nth 6) 0 31);
  check_bool "stats" true (starts_with "ok hits=" (nth 7));
  check_string "shutdown" "ok bye" (nth 8);
  check_bool "socket file removed" true (not (Sys.file_exists socket))

(* A drain's answers do not depend on the process's [ECHO_FAULTS]: a
   train request has no fault key, so neither a malformed plan nor a valid
   one reaches its loop. The variable is restored afterwards. *)
let test_train_ignores_env_faults () =
  let lines =
    [ "ping"; "train model=lm hidden=8 seq_len=4 batch=2 vocab=16 steps=2";
      "stats" ]
  in
  let drain () = Engine.exec_all (Engine.create ()) lines in
  let with_faults value f =
    let saved = Sys.getenv_opt "ECHO_FAULTS" in
    Unix.putenv "ECHO_FAULTS" value;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "ECHO_FAULTS" (Option.value saved ~default:""))
      f
  in
  let unset = with_faults "" drain in
  check_string "ping answered" "ok pong" (List.hd unset);
  check_bool "train answered" true
    (String.starts_with ~prefix:"ok steps=2" (List.nth unset 1));
  List.iter
    (fun value ->
      Alcotest.(check (list string))
        (Printf.sprintf "ECHO_FAULTS=%s" value)
        unset
        (with_faults value drain))
    [ "garbage"; "flip@0=act:999999:0:0" ]

(* ECHO_FUSION and ECHO_SANITIZE are resolved once, by [Engine.create]: a
   malformed value fails there by name, and a value set after creation
   reaches no request. Each variable is restored afterwards. *)
let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f

let test_engine_env_resolved_at_create () =
  let lines =
    [
      "ping";
      "compile model=lm hidden=8 seq_len=4 batch=2 vocab=16";
      "eval hidden=8 vocab=16 tokens=1,2,3,4,5";
      "stats";
    ]
  in
  let expected = Engine.exec_all (Engine.create ()) lines in
  List.iter
    (fun name ->
      check_bool
        (Printf.sprintf "garbage %s rejected by name at create" name)
        true
        (match with_env name "garbage" (fun () -> Engine.create ()) with
        | _ -> false
        | exception Invalid_argument msg ->
          String.starts_with ~prefix:(name ^ "=") msg);
      let engine = Engine.create () in
      Alcotest.(check (list string))
        (Printf.sprintf "%s=garbage after create: every line answered" name)
        expected
        (with_env name "garbage" (fun () -> Engine.exec_all engine lines)))
    [ "ECHO_FUSION"; "ECHO_SANITIZE" ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "serve",
      [
        t "cache hit and miss" test_cache_hit_miss;
        t "cache key separates knobs" test_cache_key_separates_knobs;
        t "cache keeps the frequently used" test_cache_frequency;
        t "cache keeps the dear per byte" test_cache_cost_per_byte;
        t "cache ages out stale entries" test_cache_aging;
        t "cache serves an over-cap entry unretained"
          test_cache_over_cap_not_retained;
        t "cache eviction is deterministic" test_cache_deterministic;
        t "cache single-flight" test_cache_single_flight;
        t "failed compile releases key" test_cache_failed_compile_releases_key;
        t "cached train bit-identical" test_cached_train_bit_identical;
        t "batched eval bit-identical" test_batched_eval_bit_identical;
        t "tenant budgets" test_tenant_budgets;
        t "warm eval across seeds" test_warm_eval_seed_interleaving;
        t "warm eval after eviction" test_warm_eval_after_eviction;
        t "evicted eval executable unreachable" test_evicted_eval_unreachable;
        t "warm eval budget fallback" test_warm_eval_budget_fallback;
        t "train ignores the process's ECHO_FAULTS"
          test_train_ignores_env_faults;
        t "engine resolves the environment at create"
          test_engine_env_resolved_at_create;
        t "protocol errors" test_protocol_errors;
        t "corpus load_text" test_corpus_load_text;
        t "socket end to end" test_socket_end_to_end;
      ] );
  ]
