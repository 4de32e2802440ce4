module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor

type entry = {
  exe : Pipeline.executable;
  bytes : int;
  cost : int;  (** rebuild cost: the compiled graph's node count *)
  mutable uses : int;  (** 1 at admission, +1 per hit *)
  mutable priority : float;  (** [L + uses * cost / bytes] at the last fetch *)
  mutable last_use : int;  (** logical clock of the most recent fetch *)
}

type t = {
  lock : Mutex.t;
  filled : Condition.t;
      (** broadcast whenever an in-flight key resolves (insert or failure) *)
  cap_bytes : int option;
  table : (string, entry) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  mutable clock : int;
  mutable inflation : float;  (** [L]: the priority of the last victim *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

let create ?cap_bytes () =
  (match cap_bytes with
  | Some c when c <= 0 ->
    invalid_arg
      (Printf.sprintf "Plan_cache.create: cap_bytes must be positive, got %d" c)
  | _ -> ());
  {
    lock = Mutex.create ();
    filled = Condition.create ();
    cap_bytes;
    table = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    clock = 0;
    inflation = 0.0;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Caller holds [t.lock]. Stamp a fetch of [e]: its priority restarts
   from the current inflation, so an entry nobody asks for falls behind
   the newcomers that raise it. *)
let touch t e =
  t.clock <- t.clock + 1;
  e.last_use <- t.clock;
  e.priority <-
    t.inflation
    +. (float_of_int e.uses *. float_of_int e.cost /. float_of_int (max 1 e.bytes))

(* Caller holds [t.lock]. Evict the entry of lowest priority, the older
   fetch on a tie (the clock is strictly increasing, so the victim does
   not depend on the table's iteration order), and raise the inflation
   to its priority. *)
let evict t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, v)
          when v.priority < e.priority
               || (v.priority = e.priority && v.last_use < e.last_use) ->
          acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
    Hashtbl.remove t.table key;
    t.inflation <- e.priority;
    t.bytes <- t.bytes - e.bytes;
    t.evictions <- t.evictions + 1

let fetch t ~key ~compile =
  Mutex.lock t.lock;
  let rec resolve () =
    match Hashtbl.find_opt t.table key with
    | Some e ->
      e.uses <- e.uses + 1;
      touch t e;
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      (e.exe, true)
    | None when Hashtbl.mem t.inflight key ->
      (* Another fetch is compiling this key; wait for it and re-check —
         the entry may also have been evicted between broadcast and wake,
         in which case this caller becomes the next compiler. *)
      Condition.wait t.filled t.lock;
      resolve ()
    | None ->
      Hashtbl.replace t.inflight key ();
      t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      let exe =
        try compile ()
        with ex ->
          Mutex.lock t.lock;
          Hashtbl.remove t.inflight key;
          Condition.broadcast t.filled;
          Mutex.unlock t.lock;
          raise ex
      in
      let e = Pipeline.executor exe in
      let entry =
        {
          exe;
          bytes = Executor.footprint_bytes e;
          cost = Echo_ir.Graph.node_count (Executor.graph e);
          uses = 1;
          priority = 0.0;
          last_use = 0;
        }
      in
      Mutex.lock t.lock;
      touch t entry;
      Hashtbl.replace t.table key entry;
      t.bytes <- t.bytes + entry.bytes;
      (match t.cap_bytes with
      | Some cap ->
        (* The fresh entry competes like any other: when it is the
           victim (alone over the cap, or worth less per byte than what
           is resident) it is served and not retained. *)
        while t.bytes > cap && Hashtbl.length t.table > 0 do
          evict t
        done
      | None -> ());
      Hashtbl.remove t.inflight key;
      Condition.broadcast t.filled;
      Mutex.unlock t.lock;
      (exe, false)
  in
  resolve ()

let hook t = { Pipeline.fetch = (fun ~key ~compile -> fst (fetch t ~key ~compile)) }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Hashtbl.length t.table;
      bytes = t.bytes;
    }
  in
  Mutex.unlock t.lock;
  s
