(** The content-addressed compile cache behind [echoc serve].

    Entries are whole {!Echo_compiler.Pipeline.executable}s keyed by
    {!Echo_compiler.Pipeline.cache_key} — a pure function of the canonical
    graph fingerprint and every compile knob — so two requests for the same
    model shape under the same planner/fusion/runtime/budget share one
    compiled artifact, and a hit skips the entire pipeline including the
    [ECHO_VERIFY=1] self-certification.

    Storage policy:
    - {b Cost-aware eviction under a byte cap (GreedyDual-Size-Frequency).}
      Entries are charged their executor's
      {!Echo_compiler.Executor.footprint_bytes}. Each entry counts its
      [uses] (1 at admission, +1 per hit) and a rebuild [cost], the
      compiled graph's node count, and carries the priority
      [H = L + uses * cost / bytes], recomputed on every fetch of it. When
      an insert pushes the total over [cap_bytes], the entry of lowest [H]
      is evicted (the less recently fetched on a tie) and the cache's
      inflation [L] rises to its [H], until the total fits again. So an
      entry that is asked for often, or is dear to rebuild for its size,
      stays; one nobody asks for any more falls behind the newcomers that
      raise [L]. The cost is a count, not a clock, so the same fetch
      sequence always evicts the same entries and ends with the same
      {!stats}. A fresh entry competes too: when it is the victim (alone
      over the cap, or worth less per byte than what is resident) it is
      compiled, served, and not retained.
    - {b Single-flight.} Concurrent fetches of one missing key run exactly
      one compile: the first caller compiles, the rest block on a condition
      variable and are served the finished entry. A compile that raises
      releases the key so a waiter can retry.

    All operations are safe to call from multiple domains. *)

type t

val create : ?cap_bytes:int -> unit -> t
(** [cap_bytes] caps the summed footprint of retained entries (absent:
    unbounded). @raise Invalid_argument if [cap_bytes <= 0]. *)

val fetch :
  t ->
  key:string ->
  compile:(unit -> Echo_compiler.Pipeline.executable) ->
  Echo_compiler.Pipeline.executable * bool
(** Serve [key] from the table ([..., true]) or run [compile] once and
    remember the result ([..., false]). [compile] must not recurse into
    the same cache with the same key (single-flight would deadlock) —
    pass a plain [Pipeline.compile_graph] call, not a cached one.
    Exceptions from [compile] propagate to the caller after the key is
    released. *)

val hook : t -> Echo_compiler.Pipeline.cache
(** The cache as a {!Echo_compiler.Pipeline.cache}, for
    [Pipeline.compile_graph ?cache] and [Loop.train ?cache]. *)

type stats = {
  hits : int;
  misses : int;  (** fetches that ran [compile] (or tried to) *)
  evictions : int;
  entries : int;  (** currently retained *)
  bytes : int;  (** summed footprint of retained entries *)
}

val stats : t -> stats
