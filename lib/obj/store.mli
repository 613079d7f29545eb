(** The content-addressed function-level artifact store.

    Maps the full provenance of a lowered function — optimized-IR digest
    × pipeline description × diversification config × seed × object
    {!Objfile.format_version} — to its relocatable object, so rebuilding
    a program (or a 1,000-variant population) re-runs
    isel/liveness/regalloc/emit only for functions whose key actually
    changed; everything else is a store hit and the build reduces to NOP
    insertion plus relink.  Undiversified lowering uses the neutral
    config ["-"]/seed [0]: lowering is diversification-independent, so
    every config shares one artifact per function.

    Process-wide, bounded, and {b sharded}: keys hash onto
    {!shard_count} independent shards, each guarded by its own mutex
    with its own LRU clock, so concurrent lookups (say, request
    handlers on several domains) contend only when their
    keys collide on a shard.  Shard choice is a pure function of the
    key — the same run distributes and evicts identically every time.
    Least-recently-used entries are evicted per shard once the shard's
    share of {!get_capacity} is reached.  Every operation lands in
    {!Metrics} as [obj.store.hit], [obj.store.miss] or
    [obj.store.evict] (which the incremental bench and the CI
    rebuild-smoke assert on), and per-shard tallies are available
    through {!stats} for the serve daemon's observability endpoint. *)

val shard_count : int
(** Number of shards (fixed). *)

val key :
  ir_digest:string -> pipeline:string -> config:string -> seed:int64 -> string
(** The store key; folds in {!Objfile.format_version} so a format bump
    invalidates rather than resurrects. *)

val shard_of_key : string -> int
(** Which shard a key lives on — deterministic; exposed so tests can
    construct same-shard key sets to pin LRU behaviour. *)

val lookup : string -> Objfile.func_obj option
(** Counted as a hit or a miss. *)

val insert : string -> Objfile.func_obj -> unit
(** No-op if the key is already present; evicts the shard's LRU entry
    (counted) when the shard is at capacity. *)

val find_or_lower :
  ir_digest:string ->
  pipeline:string ->
  config:string ->
  seed:int64 ->
  (unit -> Objfile.func_obj) ->
  Objfile.func_obj
(** Look up, or run the thunk and memoize its result. *)

val length : unit -> int
(** Total entries across every shard. *)

val get_capacity : unit -> int

val set_capacity : int -> unit
(** Store-wide capacity, divided evenly over the shards (rounded up, so
    each shard holds at least one entry).  Shrinks evict immediately.
    Raises [Invalid_argument] on [n < 1]. *)

type shard_stats = { entries : int; hits : int; misses : int; evicts : int }

val stats : unit -> shard_stats list
(** Per-shard occupancy and hit/miss/evict tallies since the last
    {!clear}, in shard order — the serve daemon's stats endpoint. *)

val clear : unit -> unit
(** Drop every entry and zero the per-shard tallies (counters in
    {!Metrics} are untouched). *)
