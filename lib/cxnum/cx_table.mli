(** Tolerance-based interning of complex numbers.

    Decision-diagram canonicity requires edge weights to be comparable by
    identity: two different gate sequences computing the same amplitude must
    yield the *same* weight object even in the presence of floating-point
    drift.  This module buckets complex values on a grid of width [tol] and
    returns a canonical {!value} (carrying a unique integer id) for every
    value within [tol] of a previously interned one.

    This reproduces the role of the "complex table" in MQT's DD package,
    which the QCEC tool used by the paper builds upon.

    {b Probe-order contract.}  A value is filed under the binary exponent
    [e] of its larger component's magnitude and its [tol]-grid cell at that
    scale.  [lookup z] probes exponent [e], then [e+1], then [e-1]; within
    an exponent the grid offsets [0, +1, -1] on re, and for each of them
    [0, +1, -1] on im; within a cell, the newest value first.  The first
    stored value that matches [z] in this fixed order is the
    representative, so the order decides which of several close values a
    weight becomes — and with it the sharing in the unique tables.

    {b Exponent skip.}  A match has [|mag v - mag z| <= tol * max (mag v)
    (mag z)], and a stored value lives only under its own exponent.  So
    exponent [e+1] can hold a match only when [mag z >= 2^e (1 - tol)],
    and [e-1] only when [mag z < 2^(e-1) / (1 - tol)]; with a margin of
    [4 tol] (plus a few ulps) the lookup skips the neighbours outside these
    windows.  Skipping a neighbour that cannot match never changes the
    first match, and away from powers of two it cuts the 27 probes to 9.
    The probe itself runs in place over int keys: a lookup that hits
    allocates nothing. *)

type value = private { re : float; im : float; id : int }

type t

(** [create ~tol ()] makes a fresh, small table (it grows on demand).  Two
    complex numbers are identified when both components differ by at most
    [tol] times the larger of their magnitudes (default [1e-10]). *)
val create : ?tol:float -> unit -> t

val tol : t -> float

(** [lookup t z] interns [z], returning the canonical representative: the
    first match in the probe order above, else [1] if [z] matches it, else
    a fresh value with the next id.  The canonical values [0] and [1] are
    pre-interned with ids [0] and [1] and are shared between all tables. *)
val lookup : t -> Cx.t -> value

(** Number of distinct values currently interned (including 0 and 1). *)
val size : t -> int

(** [rebuild t survivors] garbage-collects the table: every binding is
    dropped and exactly [survivors] (each passed once; the pre-interned 0
    and 1 are implicit) are re-interned under their existing ids, in list
    order, so within a cell the last survivor passed is probed first.  Ids
    are never recycled, so values *not* in [survivors] that a caller still
    holds remain distinguishable — they only lose sharing with any later
    re-interning of the same complex number. *)
val rebuild : t -> value list -> unit

(** Canonical zero, id 0.  Shared across tables. *)
val zero : value

(** Canonical one, id 1.  Shared across tables. *)
val one : value

val is_zero : value -> bool
val is_one : value -> bool

(** [to_cx v] forgets the id. *)
val to_cx : value -> Cx.t

val pp : Format.formatter -> value -> unit
