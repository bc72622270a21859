(* Reference compute cache: the polymorphic [Hashtbl] plus clock [Queue]
   that [Dd.Cache] replaced, kept in behaviour as the oracle for the
   differential test in [Test_dd].  Keys are four-int tuples; instead of
   publishing metrics it counts hits, misses and evictions and tracks the
   peak size in plain fields.  [find] results, [length], and the counts of
   the production cache must agree with it on every op stream. *)

type key = int * int * int * int

type 'v t =
  { tbl : (key, 'v * bool ref) Hashtbl.t
  ; queue : (key * bool ref) Queue.t
  ; capacity : int (* negative: unbounded; 0: disabled (never stores) *)
  ; mutable hits : int
  ; mutable misses : int
  ; mutable evictions : int
  ; mutable peak : int
  }

let create ~capacity =
  { tbl = Hashtbl.create 16
  ; queue = Queue.create ()
  ; capacity
  ; hits = 0
  ; misses = 0
  ; evictions = 0
  ; peak = 0
  }

let length t = Hashtbl.length t.tbl

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some (v, bit) ->
    t.hits <- t.hits + 1;
    bit := true;
    Some v
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_one t =
  let rec scan () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some ((key, bit) as entry) ->
      if !bit then begin
        bit := false;
        Queue.add entry t.queue;
        scan ()
      end
      else begin
        Hashtbl.remove t.tbl key;
        t.evictions <- t.evictions + 1
      end
  in
  scan ()

let add t key v =
  if t.capacity <> 0 then begin
    match Hashtbl.find_opt t.tbl key with
    | Some (_, bit) ->
      bit := true;
      Hashtbl.replace t.tbl key (v, bit)
    | None ->
      if t.capacity > 0 && Hashtbl.length t.tbl >= t.capacity then evict_one t;
      let bit = ref false in
      Hashtbl.replace t.tbl key (v, bit);
      Queue.add (key, bit) t.queue;
      t.peak <- max t.peak (Hashtbl.length t.tbl)
  end

let clear t =
  Hashtbl.reset t.tbl;
  Queue.clear t.queue
