module M = Obs.Metrics

(* A compute cache keyed on four ints, with second-chance (clock) eviction
   when bounded.

   The table is chained: each cell holds its key, a mutable value and a
   reference bit, so a lookup hashes and compares ints in place and never
   allocates a key.  Callers pad unused key slots with [-2].

   Entries carry a reference bit that is set on every hit.  When a bounded
   cache is full, candidates are popped from a FIFO of insertion order: an
   entry whose bit is set gets a second chance (bit cleared, re-queued),
   the first entry found with a clear bit is evicted.  One full rotation
   clears every bit, so an eviction scan terminates after at most
   2 * length steps and in practice after one or two.  Only bounded caches
   keep the queue: an unbounded one never evicts.

   The queue holds exactly the table's cells (cells leave it only by being
   evicted or by [clear]), so no stale-entry bookkeeping is needed.
   Replacing a key's value keeps its cell, hence its queue position and
   bit. *)

type 'v bucket =
  | Nil
  | Cell of
      { k0 : int
      ; k1 : int
      ; k2 : int
      ; k3 : int
      ; mutable value : 'v
      ; mutable referenced : bool
      ; mutable next : 'v bucket
      }

type 'v t =
  { mutable buckets : 'v bucket array (* length a power of two *)
  ; mutable count : int
  ; initial : int
  ; queue : 'v bucket Queue.t (* insertion order; bounded caches only *)
  ; capacity : int (* negative: unbounded; 0: disabled (never stores) *)
  ; m_hits : M.counter
  ; m_misses : M.counter
  ; m_evictions : M.counter
  ; g_peak : M.gauge
  }

let create ?(capacity = -1) ?(prefix = "dd.cache.") name =
  let rec pow2 n k = if k >= n then k else pow2 n (2 * k) in
  let initial = if capacity > 0 then pow2 (max 16 (min capacity 1024)) 16 else 1024 in
  { buckets = Array.make initial Nil
  ; count = 0
  ; initial
  ; queue = Queue.create ()
  ; capacity
  ; m_hits = M.counter (prefix ^ name ^ ".hits")
  ; m_misses = M.counter (prefix ^ name ^ ".misses")
  ; m_evictions = M.counter (prefix ^ name ^ ".evictions")
  ; g_peak = M.gauge (prefix ^ name ^ ".peak")
  }

let capacity t = t.capacity
let length t = t.count

let[@inline] hash k0 k1 k2 k3 =
  let h = (((((k0 * 0x1F3D5B79) + k1) * 0x1F3D5B79) + k2) * 0x1F3D5B79) + k3 in
  let h = h * 0x2C1B3C6D5A4F0E1B in
  h lxor (h lsr 29)

let[@inline] slot t k0 k1 k2 k3 = hash k0 k1 k2 k3 land (Array.length t.buckets - 1)

let rec chain k0 k1 k2 k3 = function
  | Nil -> Nil
  | Cell c as b ->
    if c.k0 = k0 && c.k1 = k1 && c.k2 = k2 && c.k3 = k3 then b else chain k0 k1 k2 k3 c.next

let find t k0 k1 k2 k3 =
  match chain k0 k1 k2 k3 (Array.unsafe_get t.buckets (slot t k0 k1 k2 k3)) with
  | Cell c ->
    M.incr t.m_hits;
    c.referenced <- true;
    Some c.value
  | Nil ->
    M.incr t.m_misses;
    None

let resize t n =
  let old = t.buckets in
  t.buckets <- Array.make n Nil;
  let rec move = function
    | Nil -> ()
    | Cell c as b ->
      let next = c.next in
      let i = slot t c.k0 c.k1 c.k2 c.k3 in
      c.next <- t.buckets.(i);
      t.buckets.(i) <- b;
      move next
  in
  Array.iter move old

(* unlink the cell [b] (physically) from its chain *)
let remove t b =
  match b with
  | Nil -> ()
  | Cell c ->
    let i = slot t c.k0 c.k1 c.k2 c.k3 in
    let rec unlink prev = function
      | Nil -> ()
      | Cell d as cur ->
        if cur == b then begin
          match prev with
          | Nil -> t.buckets.(i) <- d.next
          | Cell p -> p.next <- d.next
        end
        else unlink cur d.next
    in
    unlink Nil t.buckets.(i);
    t.count <- t.count - 1

let evict_one t =
  let rec scan () =
    match Queue.take_opt t.queue with
    | None | Some Nil -> ()
    | Some (Cell c as b) ->
      if c.referenced then begin
        c.referenced <- false;
        Queue.add b t.queue;
        scan ()
      end
      else begin
        remove t b;
        M.incr t.m_evictions
      end
  in
  scan ()

let add t k0 k1 k2 k3 v =
  if t.capacity <> 0 then begin
    match chain k0 k1 k2 k3 (Array.unsafe_get t.buckets (slot t k0 k1 k2 k3)) with
    | Cell c ->
      (* a re-computed key replaces the old value in place *)
      c.referenced <- true;
      c.value <- v
    | Nil ->
      if t.capacity > 0 && t.count >= t.capacity then evict_one t;
      let i = slot t k0 k1 k2 k3 in
      let b = Cell { k0; k1; k2; k3; value = v; referenced = false; next = t.buckets.(i) } in
      t.buckets.(i) <- b;
      t.count <- t.count + 1;
      if t.capacity > 0 then Queue.add b t.queue;
      if t.count > Array.length t.buckets then resize t (2 * Array.length t.buckets);
      M.observe t.g_peak t.count
  end

let clear t =
  if t.count > 0 || Array.length t.buckets <> t.initial then begin
    t.buckets <- Array.make t.initial Nil;
    t.count <- 0
  end;
  Queue.clear t.queue
