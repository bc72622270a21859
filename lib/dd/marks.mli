(** Visited marks for node walks ({!Vec.node_count}, {!Mat.node_count}).

    A domain-local, epoch-stamped int array indexed by node id: starting a
    walk bumps the epoch instead of clearing the array, so a walk allocates
    nothing unless a node id outgrows the array, which then doubles.  Each
    domain has its own array, so walks in different domains never
    interfere; within a domain, walks must not nest. *)

type t

(** Length of a domain's array before its first growth. *)
val initial_length : int

(** [start ()] begins a walk in the calling domain: no node is visited. *)
val start : unit -> t

(** [visit m id] marks node [id] ([>= 0]) and tells whether this is its
    first visit in the walk. *)
val visit : t -> int -> bool

(** Current length of the calling domain's array. *)
val length : unit -> int
