(** Consistent-hash ring over backend names — how the router shards
    solve requests by {!Protocol.fingerprint}.

    Each backend contributes [vnodes] points on an unsigned 64-bit
    circle (MD5-derived); a key belongs to the owner of the first
    point clockwise of its hash. The structure is immutable: {!add}
    and {!remove} return new rings, so lookups need no lock, and a
    membership change remaps only ~1/N of the key space (the slices
    whose nearest point belonged to the changed backend) — the cache
    locality of every other shard survives. *)

type t

(** [make ?vnodes names] — duplicates dropped, order preserved.
    [vnodes] (default 64) trades balance for ring size.
    @raise Invalid_argument if [vnodes < 1]. *)
val make : ?vnodes:int -> string list -> t

val backends : t -> string list
val is_empty : t -> bool

(** [shard t key] — the owning backend; deterministic: equal keys on
    equal rings always answer the same name, whatever the insertion
    order was. @raise Invalid_argument on an empty ring. *)
val shard : t -> string -> string

val add : t -> string -> t
val remove : t -> string -> t
