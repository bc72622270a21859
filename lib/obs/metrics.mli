(** Observability counters for the DD substrate, with domain-local value
    registries.

    Metric {e names} are registered process-wide (typically at module
    initialization of the instrumented layer) and may be used from any
    domain, but every domain accumulates into its {e own} value slots: a
    counter incremented inside a worker domain is visible in that domain's
    {!snapshot} only.  Parallel drivers (the batch engine's worker pool)
    harvest each worker's snapshot at join time and either fold it into the
    calling domain's registry with {!absorb} or combine the readings
    off-registry with {!merge}.  Increments therefore never race across
    domains and no counts are dropped.

    Collection is globally disabled by default: a disabled
    {!incr}/{!add}/{!observe} costs exactly one load and one branch, so
    instrumentation can live inside the compute-cache and unique-table
    lookups without a measurable tax on uninstrumented runs. *)

(** {1 Global switch} *)

val enabled : unit -> bool

(** [set_enabled b] turns collection on or off (process-wide; spans
    ({!Span}) obey the same switch).  Flip it before spawning worker
    domains so they all observe the same setting. *)
val set_enabled : bool -> unit

(** {1 Counters (monotonic while enabled)} *)

type counter

(** [counter name] registers a counter under [name], or returns the
    existing one.  Dotted names ([dd.cache.mv.hits]) form the metric
    namespace documented in [docs/OBSERVABILITY.md].  Safe to call from
    any domain. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** [value c] is the calling domain's reading of [c]. *)
val value : counter -> int

(** {1 Peak gauges} *)

type gauge

val gauge : string -> gauge

(** [observe g v] raises the recorded peak to [v] if larger. *)
val observe : gauge -> int -> unit

val peak : gauge -> int

(** {1 Snapshots} *)

(** A point-in-time reading of every registered metric {e in the calling
    domain}, sorted by name. *)
type snapshot = (string * int) list

val snapshot : unit -> snapshot

(** [diff ~before ~after] is the reading attributable to the interval:
    counters are subtracted, peak gauges keep their [after] value (a peak
    cannot be meaningfully differenced). *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** [merge snaps] combines per-domain snapshots into one reading: counters
    are summed, peak gauges maxed.  Use it to aggregate worker registries
    collected at join. *)
val merge : snapshot list -> snapshot

(** [absorb snap] folds another domain's snapshot into the calling
    domain's registry (counters add, gauges max), so process-level reports
    taken on the main domain include work done by joined workers.  Names
    not registered in this process are ignored. *)
val absorb : snapshot -> unit

(** [find s name] is the value of [name] in [s], or [0]. *)
val find : snapshot -> string -> int

(** Zero every counter and gauge of the calling domain (registered names
    are kept). *)
val reset : unit -> unit

(** [to_json s] is the snapshot as a JSON object, one numeric field per
    metric. *)
val to_json : snapshot -> Qcec_json.t
