type value = { re : float; im : float; id : int }

(* observability: interning traffic across all tables in the process *)
let m_hits = Obs.Metrics.counter "cx.table.hits"
let m_inserts = Obs.Metrics.counter "cx.table.inserts"

let zero = { re = 0.0; im = 0.0; id = 0 }
let one = { re = 1.0; im = 0.0; id = 1 }
let is_zero v = v.id = 0
let is_one v = v.id = 1
let to_cx v = Cx.make v.re v.im

(* Interning is *relative*: two values are identified when their components
   agree within [tol] of their common magnitude scale.  Edge weights in a
   decision diagram range over many orders of magnitude (a 128-qubit
   Hadamard layer contributes (1/sqrt 2)^128 ~ 5e-20 to the root weight), so
   an absolute grid would collapse everything small to zero.  Values are
   bucketed by binary exponent of their dominant component plus a
   [tol]-grid over the exponent-normalized components; lookup probes the
   neighbouring grid cells and both neighbouring exponents, so any two
   relatively-close values share a representative.

   Probe order is part of the contract: exponent [e], then [e+1], then
   [e-1]; within an exponent, grid offsets [0, +1, -1] on re, and for each
   of them [0, +1, -1] on im; within a cell, newest value first.  The first
   match in this order is the representative.  A neighbouring exponent is
   skipped only when no stored value under it can match (see [lookup]), so
   skipping never changes which value is found first.

   The probe runs in place: a key is three ints (exponent, re cell, im
   cell) in a chained hash table of its own, compared without polymorphic
   hashing or compare, and no probe key is ever materialized, so a lookup
   that hits allocates nothing. *)
type bucket =
  | Nil
  | Cell of
      { ke : int
      ; kr : int
      ; ki : int
      ; mutable values : value list (* newest first *)
      ; mutable next : bucket
      }

type t =
  { tol : float
  ; up_below : float (* skip exponent e+1 when mag z < 2^e * up_below *)
  ; down_from : float (* skip exponent e-1 when mag z >= 2^(e-1) * down_from *)
  ; mutable buckets : bucket array (* length a power of two *)
  ; mutable cells : int (* distinct keys, at most the bucket count *)
  ; mutable next_id : int
  ; mutable count : int (* live interned values, including 0 and 1 *)
  }

(* Values this small cannot be distinguished from exact zero by any
   computation we perform; they are also well below the smallest legitimate
   amplitude of a 400-qubit state. *)
let hard_zero = 1e-250

(* The service builds a package, hence a table, per job: tables start
   small and double when the cells outnumber the buckets. *)
let initial_buckets = 64

(* [Float.max] on non-negative operands, NaN-propagating, but small enough
   to inline so the result stays unboxed. *)
let[@inline] fmax (a : float) b =
  if a > b then a else if b > a then b else if a <> a then a else b

let[@inline] magnitude (z : Cx.t) = fmax (Float.abs z.Cx.re) (Float.abs z.Cx.im)

(* [snd (Float.frexp m)] without the tuple: for the positive normal [m]
   that reach it (m >= hard_zero), the biased exponent minus 1022. *)
let[@inline] exponent_of m =
  let biased = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float m) 52) land 0x7ff in
  if biased = 0x7ff then snd (Float.frexp m) else biased - 1022

let[@inline] grid t x e = int_of_float (Float.round (x /. Float.ldexp 1.0 e /. t.tol))

let[@inline] hash ke kr ki =
  let h = ((((ke * 31) + kr) * 0x1F3D5B79) + ki) * 0x2C1B3C6D5A4F0E1B in
  h lxor (h lsr 29)

let create ?(tol = 1e-10) () =
  (* margin of the exponent skip: 4 tol, plus a few ulps so a tolerance
     near zero still covers the rounding of the match test itself *)
  let slack = (4.0 *. tol) +. (8.0 *. epsilon_float) in
  { tol
  ; up_below = 1.0 -. slack
  ; down_from = 1.0 +. slack
  ; buckets = Array.make initial_buckets Nil
  ; cells = 0
  ; next_id = 2
  ; count = 2
  }

let tol t = t.tol

(* Relative comparison at the scale of the larger operand. *)
let[@inline] matches t (z : Cx.t) (v : value) =
  let scale = fmax (magnitude z) (fmax (Float.abs v.re) (Float.abs v.im)) in
  Float.abs (v.re -. z.Cx.re) <= t.tol *. scale
  && Float.abs (v.im -. z.Cx.im) <= t.tol *. scale

(* Returned by the probes for "no match"; compared physically. *)
let no_match = { re = Float.nan; im = Float.nan; id = -1 }

let rec chain ke kr ki = function
  | Nil -> Nil
  | Cell c as b -> if c.ke = ke && c.kr = kr && c.ki = ki then b else chain ke kr ki c.next

let[@inline] find_cell t ke kr ki =
  chain ke kr ki (Array.unsafe_get t.buckets (hash ke kr ki land (Array.length t.buckets - 1)))

let rec scan t z = function
  | [] -> no_match
  | v :: rest -> if matches t z v then v else scan t z rest

let[@inline] probe_cell t z ke kr ki =
  match find_cell t ke kr ki with
  | Nil -> no_match
  | Cell c -> scan t z c.values

(* im offsets 0, +1, -1 *)
let probe_row t z ke kr ki =
  let v = probe_cell t z ke kr ki in
  if v != no_match then v
  else
    let v = probe_cell t z ke kr (ki + 1) in
    if v != no_match then v else probe_cell t z ke kr (ki - 1)

(* re offsets 0, +1, -1, around the grid cell of [z] at exponent [ke] *)
let probe_exponent t (z : Cx.t) ke =
  let kr = grid t z.Cx.re ke and ki = grid t z.Cx.im ke in
  let v = probe_row t z ke kr ki in
  if v != no_match then v
  else
    let v = probe_row t z ke (kr + 1) ki in
    if v != no_match then v else probe_row t z ke (kr - 1) ki

let resize t n =
  let old = t.buckets in
  t.buckets <- Array.make n Nil;
  let rec move = function
    | Nil -> ()
    | Cell c as b ->
      let next = c.next in
      let i = hash c.ke c.kr c.ki land (n - 1) in
      c.next <- t.buckets.(i);
      t.buckets.(i) <- b;
      move next
  in
  Array.iter move old

(* File [v] under its own exponent's centre cell, newest first. *)
let insert t v =
  let e = exponent_of (fmax (Float.abs v.re) (Float.abs v.im)) in
  let ke = e and kr = grid t v.re e and ki = grid t v.im e in
  t.count <- t.count + 1;
  match find_cell t ke kr ki with
  | Cell c -> c.values <- v :: c.values
  | Nil ->
    let i = hash ke kr ki land (Array.length t.buckets - 1) in
    t.buckets.(i) <- Cell { ke; kr; ki; values = [ v ]; next = t.buckets.(i) };
    t.cells <- t.cells + 1;
    if t.cells > Array.length t.buckets then resize t (2 * Array.length t.buckets)

let lookup t (z : Cx.t) =
  let m = magnitude z in
  if m < hard_zero then begin
    Obs.Metrics.incr m_hits;
    zero
  end
  else if z.Cx.re = 1.0 && z.Cx.im = 0.0 then begin
    Obs.Metrics.incr m_hits;
    one
  end
  else begin
    (* A stored value lives only under its own exponent, and a match has
       |mag v - mag z| <= tol * max (mag v) (mag z).  With
       2^(e-1) <= mag z < 2^e, a value under e+1 (mag v >= 2^e) can match
       only if mag z >= 2^e (1 - tol), and one under e-1
       (mag v < 2^(e-1)) only if mag z < 2^(e-1) / (1 - tol).  The bounds
       carry the slack of [create]; outside a window a few tol wide around
       each power of two, 27 probes become 9.  Non-finite [z] probe all. *)
    let e = exponent_of m in
    let finite = m < Float.infinity in
    let v = probe_exponent t z e in
    let v =
      if v == no_match && not (finite && m < Float.ldexp t.up_below e) then
        probe_exponent t z (e + 1)
      else v
    in
    let v =
      if v == no_match && not (finite && m >= Float.ldexp t.down_from (e - 1)) then
        probe_exponent t z (e - 1)
      else v
    in
    if v != no_match then begin
      Obs.Metrics.incr m_hits;
      v
    end
    else if matches t z one then begin
      Obs.Metrics.incr m_hits;
      one
    end
    else begin
      let v = { re = z.Cx.re; im = z.Cx.im; id = t.next_id } in
      t.next_id <- t.next_id + 1;
      insert t v;
      Obs.Metrics.incr m_inserts;
      v
    end
  end

let size t = t.count

(* Garbage collection: re-seed the table with exactly the given survivors,
   in the given order, so a cell lists the later-passed survivors first, as
   if freshly interned.  Ids are *not* recycled — [next_id] keeps rising
   monotonically — so a stale value held by a caller can never collide with
   a freshly interned one; it merely loses sharing with the new
   representative of the same complex number.  Survivors with ids 0/1 (the
   pre-interned constants, which live outside the buckets) are skipped; the
   caller is expected to pass each survivor once. *)
let rebuild t survivors =
  t.buckets <- Array.make initial_buckets Nil;
  t.cells <- 0;
  t.count <- 2;
  List.iter (fun (v : value) -> if v.id > 1 then insert t v) survivors

let pp ppf v = Cx.pp ppf (to_cx v)
