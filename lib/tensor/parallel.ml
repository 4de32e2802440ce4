(* A persistent Domain worker pool with a fork-join [parallel_for].

   Workers park on a condition variable between jobs. Each [parallel_for]
   bumps an epoch, publishes one job closure, and wakes everyone; every
   participant (workers and the caller) drains chunks from a shared atomic
   counter — deterministic work stealing. Chunk [c] always covers
   [(c*n/parts, (c+1)*n/parts)], a pure function of (n, parts), so the
   bytes written are identical no matter which domain claims which chunk;
   only the schedule is dynamic. The caller then waits for the pending
   count to drain — a full barrier, so kernel calls never overlap and the
   tensor kernels need no per-call state.

   A handle also carries an execution [config]: the fan-out work gate and
   whether the pool may oversubscribe the hardware. The config rides on
   the handle (not in a global) so two executors compiled with different
   settings can run concurrently without racing on process state. *)

type config = { min_fanout_work : int; oversubscribe : bool }

let default_config = { min_fanout_work = 1 lsl 18; oversubscribe = false }

(* Stealable chunks per fanned-out domain. *)
let chunks_per_domain = 4

type pool = {
  pool_domains : int;  (* participants, including the caller *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  next : int Atomic.t;  (* shared chunk queue for the current job *)
  mutable epoch : int;
  mutable job : (unit -> unit) option;  (* the per-participant drain loop *)
  mutable pending : int;
  mutable failure : exn option;
  mutable stop : bool;
  mutable handles : unit Domain.t list;
}

type kind = Seq | Pool of pool
type t = { kind : kind; config : config }

let sequential = { kind = Seq; config = default_config }
let domains t = match t.kind with Seq -> 1 | Pool p -> p.pool_domains
let min_fanout_work t = t.config.min_fanout_work

let hardware_parallelism =
  let n = lazy (max 1 (Domain.recommended_domain_count ())) in
  fun () -> Lazy.force n

(* How many domains a kernel may actually fan out across: the pool size,
   capped at the hardware unless the handle opted into oversubscription.
   Spawning more runnable domains than cores is a large constant-factor
   loss (the workers time-slice against each other), so the cap is the
   default and oversubscription is a testing device. *)
let effective_fanout t =
  match t.kind with
  | Seq -> 1
  | Pool p ->
    if t.config.oversubscribe then p.pool_domains
    else min p.pool_domains (hardware_parallelism ())

let worker_loop pool =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.epoch = !seen && not pool.stop do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with
      | None -> ()
      | Some f -> (
        try f ()
        with e ->
          Mutex.lock pool.mutex;
          if pool.failure = None then pool.failure <- Some e;
          Mutex.unlock pool.mutex));
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.signal pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let shutdown t =
  match t.kind with
  | Seq -> ()
  | Pool pool ->
    Mutex.lock pool.mutex;
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.handles;
    pool.handles <- []

let env_domains () =
  match Sys.getenv_opt "ECHO_DOMAINS" with
  | None | Some "" -> hardware_parallelism ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "ECHO_DOMAINS=%S: expected a positive integer (number of worker \
            domains), e.g. ECHO_DOMAINS=4"
           s))

let create ?domains ?oversubscribe ?min_fanout_work () =
  let d = match domains with Some d -> d | None -> env_domains () in
  if d < 1 then invalid_arg "Parallel.create: domains must be >= 1";
  let config =
    {
      min_fanout_work =
        Option.value min_fanout_work ~default:default_config.min_fanout_work;
      oversubscribe =
        Option.value oversubscribe ~default:default_config.oversubscribe;
    }
  in
  if config.min_fanout_work < 0 then
    invalid_arg "Parallel.create: min_fanout_work must be >= 0";
  (* Never spawn a worker the fan-out cap makes unusable. A parked domain
     is not free: every minor collection is a stop-the-world handshake
     across all live domains, which taxes every allocation in the process
     (measured ~2x per-step slowdown on a 1-core machine with idle
     workers). Unless the handle oversubscribes, size the pool at the
     hardware; asking for more parallelism than the machine has then
     degrades gracefully to what it can actually deliver. *)
  let d = if config.oversubscribe then d else min d (hardware_parallelism ()) in
  if d = 1 then { kind = Seq; config }
  else begin
    let pool =
      {
        pool_domains = d;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        next = Atomic.make 0;
        epoch = 0;
        job = None;
        pending = 0;
        failure = None;
        stop = false;
        handles = [];
      }
    in
    let t = { kind = Pool pool; config } in
    pool.handles <-
      List.init (d - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
    at_exit (fun () -> shutdown t);
    t
  end

(* Balanced contiguous partition of [0, n) into [parts] chunks: a pure
   function of (n, parts), independent of which domain runs which chunk. *)
let chunk_bounds n parts i = ((i * n) / parts, ((i + 1) * n) / parts)

let run_pool pool ~n ~parts body =
  Mutex.lock pool.mutex;
  Atomic.set pool.next 0;
  let drain () =
    let continue = ref true in
    while !continue do
      let c = Atomic.fetch_and_add pool.next 1 in
      if c >= parts then continue := false
      else begin
        let lo, hi = chunk_bounds n parts c in
        if lo < hi then body lo hi
      end
    done
  in
  pool.job <- Some drain;
  pool.pending <- pool.pool_domains - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  (* The caller drains alongside the workers; its exception must not skip
     the join. *)
  let caller_failure = try drain (); None with e -> Some e in
  Mutex.lock pool.mutex;
  while pool.pending > 0 do
    Condition.wait pool.work_done pool.mutex
  done;
  pool.job <- None;
  let worker_failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.mutex;
  match (caller_failure, worker_failure) with
  | Some e, _ | None, Some e -> raise e
  | None, None -> ()

let parallel_for t ?(work = 1) ~n body =
  if n > 0 then begin
    match t.kind with
    | Seq -> body 0 n
    | Pool pool ->
      let c = t.config in
      let fan =
        if c.oversubscribe then pool.pool_domains
        else min pool.pool_domains (hardware_parallelism ())
      in
      let total_work = n * max 1 work in
      (* Fanning out costs tens of microseconds of wakeup/join latency;
         below the work gate the sequential loop is strictly faster. *)
      if fan <= 1 || total_work < c.min_fanout_work then body 0 n
      else begin
        (* More chunks than domains so a straggler on a ragged row range
           can be stolen from, but never chunks smaller than a quarter of
           the fan-out gate — stealing granularity must stay coarse
           enough to amortize the atomic claim. *)
        let quantum = max 1 (c.min_fanout_work / 4) in
        let parts =
          min (fan * chunks_per_domain) (max 1 (total_work / quantum))
        in
        let parts = min parts n in
        if parts <= 1 then body 0 n else run_pool pool ~n ~parts body
      end
  end

(* The process-wide runtime: sized by ECHO_DOMAINS on first use. *)
let default_runtime : t option ref = ref None

let default () =
  match !default_runtime with
  | Some t -> t
  | None ->
    let t = create ~domains:(env_domains ()) () in
    default_runtime := Some t;
    t

let set_default_domains d =
  (match !default_runtime with Some t -> shutdown t | None -> ());
  let t = create ~domains:d () in
  default_runtime := Some t;
  t
