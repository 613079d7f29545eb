(** A process-wide memo table, optionally bounded by an LRU policy.

    The one cache implementation behind the artifact {!Store}, the
    driver's compile/profile/baseline caches, [Bsim]'s decoded-block
    cache and the linker's runtime objects.

    Every operation holds the table's {!Lock}; the thunk given to
    {!find_or_add} runs outside it, and a thunk that raises leaves no
    entry.  Recency is a tick bumped by every lookup and insert: a miss
    on a table at capacity evicts the least-recently-used entry.  A
    table created without [capacity] never evicts.

    With [~metric:p], lookups count [p.hit] or [p.miss] and evictions
    [p.evict] in {!Metrics}; each name is registered on its first
    occurrence, so an unbounded table never registers [p.evict]. *)

type ('k, 'v) t

val create : ?capacity:int -> ?metric:string -> unit -> ('k, 'v) t
(** Raises [Invalid_argument] on [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value under the key, or the thunk's result, stored. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counted as a hit or a miss; a hit refreshes the entry's recency. *)

val length : ('k, 'v) t -> int

val set_capacity : ('k, 'v) t -> int -> unit
(** Bound the table; a shrink evicts least-recently-used entries at
    once.  Raises [Invalid_argument] on [n < 1]. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry; counters in {!Metrics} are untouched. *)
