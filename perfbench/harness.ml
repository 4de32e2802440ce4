(* Shared measurement substrate of the benchmark: clock, GC counters,
   latency statistics, in-memory spans for the traced run, and the result
   line. Everything here is benchmark-side: the program under test is only
   ever called through its public entry points. *)

let now () = Unix.gettimeofday ()

(* Taken while the executable's modules initialise, i.e. as close to
   process start as OCaml code can observe. *)
let t_main = now ()

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Whole-program allocation: large tensors ([float array]) go straight to
   the major heap, so minor words alone miss most of it. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fixed spin loop: timed at the start and the end of every run, so a run
   taken during a slow period on a shared host is visible. Never used to
   rescale or drop samples. *)
let calib_ms () =
  let t0 = now () in
  let x = ref 0.0 in
  for i = 1 to 20_000_000 do
    x := !x +. (float_of_int (i land 1023) *. 1e-9)
  done;
  ignore (Sys.opaque_identity !x);
  1000.0 *. (now () -. t0)

(* {1 Statistics} *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let f = pos -. float_of_int lo in
    s.(lo) +. (f *. (s.(hi) -. s.(lo)))

let median a = quantile (sorted a) 0.5

(* p90, or, with fewer than 100 samples, the highest percentile that still
   leaves ten samples beyond it. Returns the value and the percentile
   used. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, 0.0)
  else
    let rank = min (int_of_float (ceil (0.9 *. float_of_int n)) - 1) (n - 11) in
    let rank = max 0 rank in
    (s.(rank), 100.0 *. float_of_int (rank + 1) /. float_of_int n)

let iqr_ratio a =
  let s = sorted a in
  let m = quantile s 0.5 in
  if m = 0.0 then 0.0 else (quantile s 0.75 -. quantile s 0.25) /. m

let geomean = function
  | [] -> nan
  | l ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
         /. float_of_int (List.length l))

(* Bit-for-bit tensor equality: the repo's numeric contract is bit
   identity, so [=] (which equates 0.0 and -0.0) is not strict enough. *)
let same_bits a b =
  let open Echo_tensor in
  Tensor.shape a = Tensor.shape b
  &&
  let n = Tensor.numel a in
  let rec go i =
    i >= n
    || Int64.equal
         (Int64.bits_of_float (Tensor.get1 a i))
         (Int64.bits_of_float (Tensor.get1 b i))
       && go (i + 1)
  in
  go 0

(* A short fingerprint of generated inputs, so a run records which inputs
   its seed produced. *)
let digest_tensors ts =
  let b = Buffer.create 4096 in
  List.iter
    (fun t -> Array.iter (fun x -> Printf.bprintf b "%h," x) (Echo_tensor.Tensor.to_array t))
    ts;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let digest_string s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* {1 Timed ops}

   One [ops] value per run: every op's wall latency, and the GC counters
   over the op only, so correctness checks made between ops are neither
   timed nor counted. *)

type ops = {
  mutable lat : float list;  (** seconds, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable busy_s : float;
  mutable alloc_w : float;
  mutable minor_gc : int;
  mutable major_gc : int;
  mutable heap_peak_w : int;  (** [top_heap_words] when the last op ended *)
}

let ops () =
  {
    lat = [];
    attempted = 0;
    failed = 0;
    busy_s = 0.0;
    alloc_w = 0.0;
    minor_gc = 0;
    major_gc = 0;
    heap_peak_w = 0;
  }

type gc_mark = { t : float; w : float; mi : int; ma : int; heap : int }

let mark () =
  let s = Gc.quick_stat () in
  {
    t = now ();
    w = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    mi = s.Gc.minor_collections;
    ma = s.Gc.major_collections;
    heap = s.Gc.top_heap_words;
  }

(* Close an op (or a run of contiguous ops) opened at [m]. *)
let close o ?(n = 1) ?(failed = 0) m =
  let e = mark () in
  let dt = e.t -. m.t in
  for _ = 1 to n do
    o.lat <- (dt /. float_of_int n) :: o.lat
  done;
  o.attempted <- o.attempted + n;
  o.failed <- o.failed + failed;
  o.busy_s <- o.busy_s +. dt;
  o.alloc_w <- o.alloc_w +. (e.w -. m.w);
  o.minor_gc <- o.minor_gc + (e.mi - m.mi);
  o.major_gc <- o.major_gc + (e.ma - m.ma);
  o.heap_peak_w <- e.heap

(* {1 Spans}

   The traced run records a span around every call into a layer: name,
   start, end, parent span and op id, plus allocation and process CPU time
   at both ends. Spans live in memory and are written when the run ends.
   With tracing off, [span] is one branch and a call. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
  c0 : float;
  mutable c1 : float;
}

let tracing = ref false
let current_op = ref 0
let spans : span list ref = ref []
let n_spans = ref 0
let open_stack : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let id = !n_spans in
    let s =
      {
        name;
        op = !current_op;
        parent = (match !open_stack with p :: _ -> p | [] -> -1);
        t0 = now ();
        t1 = nan;
        w0 = alloc_words ();
        w1 = nan;
        c0 = cpu_s ();
        c1 = nan;
      }
    in
    spans := s :: !spans;
    incr n_spans;
    open_stack := id :: !open_stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        s.w1 <- alloc_words ();
        s.c1 <- cpu_s ();
        open_stack := List.tl !open_stack)
  end

type layer = {
  calls : int;
  self_s : float;  (** duration minus the time child spans cover *)
  total_s : float;
  alloc_w : float;
  cpu_s : float;
}

(* Per-name aggregates over every recorded span. Spans are properly nested
   on one thread, so the time children cover is the sum of their
   durations. *)
let layers () =
  let all = Array.of_list (List.rev !spans) in
  let child_s = Array.make (Array.length all) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then
        child_s.(s.parent) <- child_s.(s.parent) +. (s.t1 -. s.t0))
    all;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let d = s.t1 -. s.t0 in
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_s = 0.0; total_s = 0.0; alloc_w = 0.0; cpu_s = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          calls = l.calls + 1;
          self_s = l.self_s +. (d -. child_s.(i));
          total_s = l.total_s +. d;
          alloc_w = l.alloc_w +. (s.w1 -. s.w0);
          cpu_s = l.cpu_s +. (s.c1 -. s.c0);
        })
    all;
  tbl

let layer tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; self_s = 0.0; total_s = 0.0; alloc_w = 0.0; cpu_s = 0.0 }

(* Mean self milliseconds per call; 0 when the workload never enters the
   layer. *)
let self_ms tbl name =
  let l = layer tbl name in
  if l.calls = 0 then 0.0 else 1000.0 *. l.self_s /. float_of_int l.calls

let alloc_mb tbl name =
  let l = layer tbl name in
  if l.calls = 0 then 0.0 else mb_of_words (l.alloc_w /. float_of_int l.calls)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* Chrome trace-event format, one complete ("X") event per span. *)
let write_trace path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        (json_string s.name)
        (1e6 *. (s.t0 -. t_main))
        (1e6 *. (s.t1 -. s.t0))
        s.op s.parent)
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc

(* {1 Result} *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun { name; value; unit_ } -> Printf.printf "%-28s %s %s\n" name (json_num value) unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun { name; value; unit_ } ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_num value) (json_string unit_))
          metrics))

(* {1 Run context} *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  wrong_reference : bool;
      (** perturb every oracle's reference, to show the oracles catch a
          mismatch (the benchmark's own tests use it) *)
  out_dir : string;  (** scratch files: checkpoints, traces *)
  reps : int;  (** set-up repetitions; [setup_s] is their median *)
  max_ops : int;  (** ops per timed phase at most, whatever the time left *)
}

(* The timed phases of one run: all of [--seconds] untraced, or, under
   [--trace 1], the first half untraced and the second half traced. *)
let phases ctx = if ctx.trace then (ctx.seconds /. 2.0, ctx.seconds /. 2.0) else (ctx.seconds, 0.0)
