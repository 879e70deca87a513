(** Memoized-solve cache: a bounded, thread-safe LRU keyed by canonical
    instance fingerprints.

    Keys are strings produced by an injective serialization of the
    problem instance (e.g. {!Hslb.Alloc_model.fingerprint}) so equal
    keys imply equal instances — distinct [allowed] lists, objectives or
    node budgets can never collide. Values are whatever the solve
    returned; callers should only memoize deterministic results
    (proven-[Optimal] allocations, not budget-exhausted incumbents).

    All operations take an internal mutex, so one cache may serve pool
    workers in several domains. *)

type 'v t

(** [create ?capacity ()] — default capacity 128 entries. Least recently
    used entries are evicted on overflow. @raise Invalid_argument when
    [capacity < 1]. *)
val create : ?capacity:int -> unit -> 'v t

(** [find t key] — the cached value, refreshing the entry's recency.
    Counts toward {!hits} / {!misses}. *)
val find : 'v t -> string -> 'v option

(** [put ?recurring t key v] — insert or refresh; evicts the LRU entry
    when full. With [~recurring:true] a key not yet cached is inserted
    only when a [~recurring] put already declined it among the last
    [capacity] declines, and is declined (and remembered) otherwise:
    for values about as cheap to recompute as to store, so that keys
    which do not come back while the cache could still hold them evict
    nothing. The declines are remembered as key hashes in a fixed ring
    that such a put scans: O(capacity) work, and the ring never grows. *)
val put : ?recurring:bool -> 'v t -> string -> 'v -> unit

val capacity : 'v t -> int
val length : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int

(** Keys from most to least recently touched (for tests/inspection). *)
val keys_by_recency : 'v t -> string list

(** Drop all entries and declined keys (hit/miss counters are kept). *)
val clear : 'v t -> unit
