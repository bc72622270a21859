(** Bounded compute caches for the DD package.

    Every operation cache ({!Vec.add}, {!Mat.apply}, the gate kernels, ...)
    is one of these: a chained hash table keyed on four ints, whose cells
    hold the key, the value and a reference bit.  A lookup hashes and
    compares the ints in place, so it allocates no key and runs no
    polymorphic hash or compare.  Keys with fewer than four components pad
    the unused slots with [-2] (node ids are [>= -1]).

    A positive capacity bounds the entry count with second-chance (clock)
    eviction: each entry's reference bit is set on hit, and the eviction
    scan gives referenced entries one more round before dropping them.
    Hits, misses, evictions and the peak size are reported through
    {!Obs.Metrics} under [dd.cache.<name>.{hits,misses,evictions,peak}].

    Insertions use replace semantics: re-computing a key overwrites the old
    value in place, so the cache never holds duplicate bindings for a
    key. *)

type 'v t

(** [create ?capacity ?prefix name] makes a cache publishing metrics under
    [<prefix><name>.*] ([prefix] defaults to ["dd.cache."]; the gate
    kernels use ["dd."] so their two caches share the [dd.kernel.*]
    counters).  A negative [capacity] (the default) means unbounded; [0]
    disables storage entirely (every lookup misses); a positive value
    bounds the entry count, evicting on overflow. *)
val create : ?capacity:int -> ?prefix:string -> string -> 'v t

(** [find t k0 k1 k2 k3] looks the key up, counting a hit or a miss and
    marking the entry as recently used. *)
val find : 'v t -> int -> int -> int -> int -> 'v option

(** [add t k0 k1 k2 k3 v] binds the key to [v], replacing any existing
    binding; evicts an old entry first when the cache is at capacity.  A
    no-op at capacity [0]. *)
val add : 'v t -> int -> int -> int -> int -> 'v -> unit

(** Drop every entry (capacity and counters are kept). *)
val clear : 'v t -> unit

(** Current number of entries — never exceeds a positive capacity. *)
val length : 'v t -> int

val capacity : 'v t -> int
