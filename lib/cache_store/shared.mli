(** Process-wide read-mostly maps with lock-free lookup.

    A shared tier holds state that many domains consult but few produce:
    hash-consed gate-signature blueprints, verdict-store indexes.  Reads
    take no lock: they load the table and one bucket, each through an
    {!Atomic.get}, and walk an immutable list.  Publishes are serialized
    by a mutex and replace one bucket's list, so they cost O(1) amortized
    (the table doubles when it averages two bindings per bucket).  Values
    must be treated as immutable once published: the same value may be
    observed concurrently from any number of domains.

    This complements the [Dd.Pkg] domain-ownership guard rather than
    weakening it: mutable DD state (nodes, caches, roots) stays owned by
    one domain, and only frozen, domain-agnostic data crosses through a
    shared tier.

    A reader sees every binding published before its lookup began, and
    possibly later ones; it never sees a half-made binding.  There is no
    removal other than {!clear}. *)

type ('k, 'v) t

(** [create ?metrics ()] makes an empty tier.  When [metrics] is given,
    lookups and publishes are counted under [<metrics>.hits],
    [<metrics>.misses] and [<metrics>.publishes] in {!Obs.Metrics}. *)
val create : ?metrics:string -> unit -> ('k, 'v) t

(** Lock-free lookup. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [publish t k v] binds [k] to [v] (replacing any previous binding) and
    makes it visible to all domains.  Serialized by an internal mutex;
    safe to call concurrently with {!find}.  O(1) amortized. *)
val publish : ('k, 'v) t -> 'k -> 'v -> unit

(** Number of bindings. *)
val size : ('k, 'v) t -> int

(** Drop every binding (used by tests; publishes an empty table). *)
val clear : ('k, 'v) t -> unit
